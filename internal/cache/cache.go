// Package cache implements the set-associative write-back data caches of
// Table 1 (L1I/L1D 32 KB 8-way, L2 256 KB 4-way, L3 8 MB 16-way) with true
// LRU replacement.
//
// The one non-standard feature — and the reason the paper's idea works at
// all — is that every resident line is tagged with what it holds: ordinary
// program data or a POM-TLB entry set. Because the POM-TLB is mapped into
// the physical address space, its 64 B sets are cached here like any other
// line; tagging lets the simulator report the TLB-entry hit ratios of
// Figure 9 and the cache-occupancy interference discussed in Section 5.1
// without changing the replacement behaviour.
package cache

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/stats"
)

// Kind says what a cache line holds. Replacement is kind-blind (the paper's
// design caches TLB entries "like data"); the kind exists purely so the
// statistics can be split.
type Kind uint8

const (
	// Data marks ordinary program load/store lines.
	Data Kind = iota
	// TLBEntry marks lines holding POM-TLB sets.
	TLBEntry

	numKinds = 2
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == TLBEntry {
		return "tlb-entry"
	}
	return "data"
}

// Priority selects the Section 5.1 "TLB-aware caching" policy: which line
// kind the replacement policy prefers to *retain*. The victim search first
// considers lines of the other kind (LRU among them) and only falls back
// to evicting a preferred line when the whole set holds the preferred
// kind.
type Priority uint8

const (
	// NoPriority is the paper's default: replacement is kind-blind.
	NoPriority Priority = iota
	// PreferTLB retains POM-TLB entry lines over data — for workloads
	// whose L2 TLB misses are more expensive than their data misses.
	PreferTLB
	// PreferData retains data lines over TLB entries.
	PreferData
)

// String implements fmt.Stringer.
func (p Priority) String() string {
	switch p {
	case PreferTLB:
		return "prefer-tlb"
	case PreferData:
		return "prefer-data"
	}
	return "none"
}

// preferred returns the retained kind, and whether a preference exists.
func (p Priority) preferred() (Kind, bool) {
	switch p {
	case PreferTLB:
		return TLBEntry, true
	case PreferData:
		return Data, true
	}
	return Data, false
}

// Config describes one cache level.
type Config struct {
	// Name labels the level in stats output ("L1D", "L2", "L3").
	Name string
	// SizeBytes is the total capacity.
	SizeBytes uint64
	// Ways is the associativity.
	Ways int
	// Latency is the hit latency in CPU cycles.
	Latency uint64
	// Priority is the Section 5.1 TLB-aware replacement policy.
	Priority Priority
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes == 0 || c.Ways <= 0:
		return fmt.Errorf("cache %q: size and ways must be positive", c.Name)
	case c.SizeBytes%(uint64(c.Ways)*addr.CacheLineSize) != 0:
		return fmt.Errorf("cache %q: size %d not divisible into %d ways of 64B lines", c.Name, c.SizeBytes, c.Ways)
	}
	sets := c.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: %d sets is not a power of two", c.Name, sets)
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() uint64 {
	return c.SizeBytes / (uint64(c.Ways) * addr.CacheLineSize)
}

// Table 1 cache levels.

// L1I returns the 32 KB 8-way 4-cycle instruction cache config.
func L1I() Config { return Config{Name: "L1I", SizeBytes: 32 << 10, Ways: 8, Latency: 4} }

// L1D returns the 32 KB 8-way 4-cycle data cache config.
func L1D() Config { return Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, Latency: 4} }

// L2 returns the 256 KB 4-way 12-cycle unified cache config.
func L2() Config { return Config{Name: "L2", SizeBytes: 256 << 10, Ways: 4, Latency: 12} }

// L3 returns the 8 MB 16-way 42-cycle shared cache config.
func L3() Config { return Config{Name: "L3", SizeBytes: 8 << 20, Ways: 16, Latency: 42} }

// Shadow observes every decision a cache level makes, in program order.
// The differential oracle (internal/oracle) attaches one per level and
// replays each operation against an independent recency-stack reference
// model, flagging disagreements in hit/miss outcomes or victim choice.
// A nil shadow costs one branch per operation.
type Shadow interface {
	// Access reports one lookup and its production outcome.
	Access(line uint64, write bool, kind Kind, hit bool)
	// Fill reports one fill and the production eviction decision.
	Fill(line uint64, write bool, kind Kind, ev Eviction)
	// Invalidate reports a single-line invalidation.
	Invalidate(line uint64, present, dirty bool)
	// InvalidateKind reports a kind-wide flush and how many lines dropped.
	InvalidateKind(kind Kind, n int)
}

// way is one line frame.
type way struct {
	tag   uint64
	valid bool
	dirty bool
	kind  Kind
	lru   uint64 // higher = more recently used; 0 exactly when invalid
}

// Eviction describes a line displaced by a fill.
type Eviction struct {
	// Valid is true when a line was actually displaced.
	Valid bool
	// Line is the displaced line address (address >> 6).
	Line uint64
	// Dirty is true when the displaced line needs a write-back.
	Dirty bool
	// Kind is what the displaced line held.
	Kind Kind
}

// Stats holds per-kind access counters for one cache level.
type Stats struct {
	// Access counts lookups split by line kind.
	Access [numKinds]stats.HitMiss
	// Evictions counts displaced lines by kind — how often TLB entries
	// push out data and vice versa (Section 5.1).
	Evictions [numKinds]uint64
	// Writebacks counts dirty evictions.
	Writebacks uint64
}

// DataHitRate returns the hit ratio for ordinary data lines.
func (s Stats) DataHitRate() float64 { return s.Access[Data].Ratio() }

// TLBHitRate returns the hit ratio for POM-TLB entry lines (Figure 9).
func (s Stats) TLBHitRate() float64 { return s.Access[TLBEntry].Ratio() }

// hook wraps an attached Shadow behind a concrete pointer: the
// unobserved hot path pays a single-word nil check instead of a
// two-word interface comparison, and the virtual call sits behind a
// branch the CPU predicts never-taken when no oracle is attached.
type hook struct{ s Shadow }

// Cache is one level of a write-back, write-allocate cache. All ways
// live in one contiguous array; set i occupies ways[i*Ways : (i+1)*Ways].
type Cache struct {
	cfg     Config
	ways    []way
	nways   int
	setMask uint64
	clock   uint64
	stats   Stats
	shadow  *hook

	// resident tracks how many currently-valid lines hold each kind, so
	// occupancy interference is observable.
	resident [numKinds]uint64
}

// New builds a cache level, reporting configuration errors.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Sets()
	return &Cache{
		cfg:     cfg,
		ways:    make([]way, n*uint64(cfg.Ways)),
		nways:   cfg.Ways,
		setMask: n - 1,
	}, nil
}

// MustNew is New but panics on invalid configuration — the historical
// behavior, used by call sites whose configuration was already validated.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// SetShadow attaches (or, with nil, detaches) a lockstep observer.
func (c *Cache) SetShadow(s Shadow) {
	if s == nil {
		c.shadow = nil
		return
	}
	c.shadow = &hook{s}
}

// Latency returns the hit latency in cycles.
func (c *Cache) Latency() uint64 { return c.cfg.Latency }

// setIndex maps a line address to its set.
func (c *Cache) setIndex(line uint64) uint64 { return line & c.setMask }

// setFor returns the ways of the set a line maps to.
func (c *Cache) setFor(line uint64) []way {
	i := c.setIndex(line) * uint64(c.nways)
	return c.ways[i : i+uint64(c.nways)]
}

// Lookup probes for a line without recording statistics or changing
// anything; used by tests and inclusive-hierarchy checks.
func (c *Cache) Lookup(line uint64) bool {
	set := c.setFor(line)
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == line {
			return true
		}
	}
	return false
}

// Access performs a load (write=false) or store (write=true) of the line
// and returns whether it hit. On a hit the LRU state advances and a store
// marks the line dirty. On a miss nothing is allocated — callers model the
// miss path explicitly and then Fill the line, mirroring how the simulator
// threads a miss down the hierarchy.
func (c *Cache) Access(line uint64, write bool, kind Kind) bool {
	c.clock++
	set := c.setFor(line)
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == line {
			w.lru = c.clock
			if write {
				w.dirty = true
			}
			c.stats.Access[kind].Hit()
			if c.shadow != nil {
				c.shadow.s.Access(line, write, kind, true)
			}
			return true
		}
	}
	c.stats.Access[kind].Miss()
	if c.shadow != nil {
		c.shadow.s.Access(line, write, kind, false)
	}
	return false
}

// Fill inserts a line after a miss was resolved below, evicting a victim
// if needed, and returns the eviction (if any). A fill for a store arrives
// dirty. The victim is the LRU way, except under a Section 5.1 priority
// policy, where non-preferred lines are evicted first.
func (c *Cache) Fill(line uint64, write bool, kind Kind) Eviction {
	c.clock++
	set := c.setFor(line)
	// One pass over the whole set looks for a present copy (stopping at an
	// invalid way would miss a matching line beyond it and install a
	// duplicate) and finds the first way with the smallest LRU stamp.
	// Invalid ways carry stamp 0 and valid ones a stamp of at least 1, so
	// that way is the first invalid way, else the LRU way: the kind-blind
	// victim, picked without a data-dependent branch.
	victim, oldest := 0, set[0].lru
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == line {
			// Already present (e.g. filled by a racing sibling): refresh.
			w.lru = c.clock
			if write {
				w.dirty = true
			}
			if c.shadow != nil {
				c.shadow.s.Fill(line, write, kind, Eviction{})
			}
			return Eviction{}
		}
		older := olderMask(w.lru, oldest)
		oldest ^= (oldest ^ w.lru) & older
		victim ^= (victim ^ i) & int(older)
	}
	if pref, ok := c.cfg.Priority.preferred(); ok {
		victim = priorityVictim(set, pref)
	}
	w := &set[victim]
	var ev Eviction
	if w.valid {
		ev = Eviction{Valid: true, Line: w.tag, Dirty: w.dirty, Kind: w.kind}
		c.stats.Evictions[w.kind]++
		if w.dirty {
			c.stats.Writebacks++
		}
		c.resident[w.kind]--
	}
	*w = way{tag: line, valid: true, dirty: write, kind: kind, lru: c.clock}
	c.resident[kind]++
	if c.shadow != nil {
		c.shadow.s.Fill(line, write, kind, ev)
	}
	return ev
}

// olderMask returns all ones when stamp a is older (smaller) than stamp
// b, else zero, without a branch. Stamps count operations from 0 and stay
// far below 2^63, so the sign of a-b decides.
func olderMask(a, b uint64) uint64 { return uint64(int64(a-b) >> 63) }

// priorityVictim picks the Section 5.1 victim when lines of kind pref are
// retained: the first invalid way, else the LRU line of the other kind,
// else the LRU line of the preferred kind.
func priorityVictim(set []way, pref Kind) int {
	victim := -1
	victimPreferred := false
	for i := range set {
		w := &set[i]
		if !w.valid {
			return i
		}
		wPreferred := w.kind == pref
		switch {
		case victim == -1:
			victim, victimPreferred = i, wPreferred
		case victimPreferred && !wPreferred:
			// A non-preferred line always beats a preferred one.
			victim, victimPreferred = i, wPreferred
		case victimPreferred == wPreferred && w.lru < set[victim].lru:
			victim = i
		}
	}
	return victim
}

// Invalidate drops a line if present, returning whether it was dirty. Used
// for TLB shootdowns of cached POM-TLB sets.
func (c *Cache) Invalidate(line uint64) (present, dirty bool) {
	set := c.setFor(line)
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == line {
			c.resident[w.kind]--
			present, dirty = true, w.dirty
			*w = way{}
			break
		}
	}
	if c.shadow != nil {
		c.shadow.s.Invalidate(line, present, dirty)
	}
	return present, dirty
}

// InvalidateKind drops every line of the given kind (used by conservative
// flushes of cached POM-TLB sets) and returns the count dropped.
func (c *Cache) InvalidateKind(kind Kind) int {
	n := 0
	for i := range c.ways {
		if c.ways[i].valid && c.ways[i].kind == kind {
			c.ways[i] = way{}
			c.resident[kind]--
			n++
		}
	}
	if c.shadow != nil {
		c.shadow.s.InvalidateKind(kind, n)
	}
	return n
}

// Resident returns how many valid lines currently hold the given kind.
func (c *Cache) Resident(kind Kind) uint64 { return c.resident[kind] }

// CheckInvariants validates the cache's internal structural invariants:
// every valid line resides in the set its address indexes, LRU stamps are
// unique within a set and never ahead of the clock, an invalid way carries
// stamp 0 (Fill's victim pass relies on it), no line is duplicated across
// ways, and the per-kind residency counters match a recount. It returns
// the first violation found, or nil.
func (c *Cache) CheckInvariants() error {
	var recount [numKinds]uint64
	seen := make(map[uint64]int)
	numSets := len(c.ways) / c.nways
	for si := 0; si < numSets; si++ {
		set := c.ways[si*c.nways : (si+1)*c.nways]
		stamps := make(map[uint64]int, len(set))
		for wi := range set {
			w := &set[wi]
			if !w.valid {
				if w.lru != 0 {
					return fmt.Errorf("cache %q: set %d way %d is invalid but carries LRU stamp %d",
						c.cfg.Name, si, wi, w.lru)
				}
				continue
			}
			recount[w.kind]++
			if want := c.setIndex(w.tag); want != uint64(si) {
				return fmt.Errorf("cache %q: line %#x resident in set %d, its address indexes set %d",
					c.cfg.Name, w.tag, si, want)
			}
			if w.lru > c.clock {
				return fmt.Errorf("cache %q: set %d way %d LRU stamp %d ahead of clock %d",
					c.cfg.Name, si, wi, w.lru, c.clock)
			}
			if prev, dup := stamps[w.lru]; dup {
				return fmt.Errorf("cache %q: set %d ways %d and %d share LRU stamp %d",
					c.cfg.Name, si, prev, wi, w.lru)
			}
			stamps[w.lru] = wi
			if prev, dup := seen[w.tag]; dup {
				return fmt.Errorf("cache %q: line %#x duplicated in sets %d and %d",
					c.cfg.Name, w.tag, prev, si)
			}
			seen[w.tag] = si
		}
	}
	for k := Kind(0); k < numKinds; k++ {
		if recount[k] != c.resident[k] {
			return fmt.Errorf("cache %q: resident[%s]=%d but recount found %d",
				c.cfg.Name, k, c.resident[k], recount[k])
		}
	}
	return nil
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears counters; contents are untouched.
func (c *Cache) ResetStats() { c.stats = Stats{} }
