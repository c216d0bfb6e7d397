// Package tsb models the SPARC Translation Storage Buffer the paper
// compares against (Section 3.3): a large, direct-mapped, software-managed
// translation buffer in ordinary memory. On a TLB miss the processor traps
// to the OS, dedicated hardware computes the TSB entry address, and the
// miss handler probes the buffer; a TSB miss falls through to a software
// page walk.
//
// The three properties that make the TSB lose to the POM-TLB (Section 4.1)
// are all modelled: the per-miss trap cost, the direct-mapped organization
// (more conflict misses than the POM-TLB's 4-way sets), and the fact that
// TSB entries are not direct guest-VA→host-PA translations, so a
// virtualized lookup needs multiple TSB probes.
package tsb

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/chunked"
	"repro/internal/stats"
)

// EntryBytes is the size of one TSB entry (tag + data doubleword pair, as
// in SPARC's 16-byte TTE).
const EntryBytes = 16

// Config sizes the TSB.
type Config struct {
	// SizeBytes is the buffer capacity (compared at 16 MB, same as the
	// POM-TLB, in the paper).
	SizeBytes uint64
	// BaseAddr is where the OS allocated the buffer in physical memory.
	BaseAddr uint64
	// TrapCycles is the cost of entering and leaving the OS miss handler.
	TrapCycles uint64
	// SoftwareWalkOverhead is the extra instruction overhead of a software
	// page walk after a TSB miss, beyond the walk's memory references.
	SoftwareWalkOverhead uint64
}

// DefaultConfig returns the paper's 16 MB TSB with a SPARC-like trap cost.
func DefaultConfig() Config {
	return Config{
		SizeBytes:            16 << 20,
		BaseAddr:             0,
		TrapCycles:           30,
		SoftwareWalkOverhead: 30,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes < EntryBytes:
		return fmt.Errorf("tsb: size %d too small", c.SizeBytes)
	case c.BaseAddr%addr.CacheLineSize != 0:
		return fmt.Errorf("tsb: base address must be line aligned")
	}
	return nil
}

// entry is one slot; the 64-bit fields come first so it packs into 24
// bytes.
type entry struct {
	vpn   uint64
	pfn   uint64
	vm    addr.VMID
	pid   addr.PID
	size  addr.PageSize
	valid bool
}

// slotChunkShift sizes the host-memory chunks the slots are stored in:
// 1<<10 = 1,024 slots (24 KB), allocated on the first insert into any of
// them, so host memory follows the slots a run writes, not the modelled
// 16 MB.
const slotChunkShift = 10

// TSB is the direct-mapped translation storage buffer.
type TSB struct {
	cfg     Config
	slots   chunked.Array[entry] // one-entry groups; unwritten slots read invalid
	mask    uint64
	lookups stats.HitMiss
	// Conflicts counts inserts that displaced a live entry — the
	// direct-mapped weakness the paper calls out.
	Conflicts uint64
}

// New builds a TSB, reporting configuration errors.
func New(cfg Config) (*TSB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.SizeBytes / EntryBytes
	for n&(n-1) != 0 {
		n &= n - 1
	}
	return &TSB{cfg: cfg, slots: chunked.Make[entry](n, 1, slotChunkShift), mask: n - 1}, nil
}

// MustNew is New but panics on invalid configuration — the historical
// behavior, used by call sites whose configuration was already validated.
func MustNew(cfg Config) *TSB {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Config returns the TSB's configuration.
func (t *TSB) Config() Config { return t.cfg }

// Slots returns the number of direct-mapped slots.
func (t *TSB) Slots() uint64 { return t.slots.Len() }

// index computes the direct-mapped slot for a VPN.
func (t *TSB) index(vm addr.VMID, vpn uint64) uint64 {
	return (vpn ^ uint64(vm)) & t.mask
}

// EntryAddr returns the physical address of the slot a page size
// interpretation of va maps to — the address the miss handler loads, which
// therefore travels through the data caches like any other load.
func (t *TSB) EntryAddr(vm addr.VMID, va addr.VA, size addr.PageSize) addr.HPA {
	return addr.HPA(t.cfg.BaseAddr + t.index(vm, va.VPN(size))*EntryBytes)
}

// Lookup probes the slot for one page-size interpretation of va.
func (t *TSB) Lookup(vm addr.VMID, pid addr.PID, va addr.VA, size addr.PageSize) (pfn uint64, ok bool) {
	e := t.slots.Read(t.index(vm, va.VPN(size)))[0]
	if e.valid && e.vm == vm && e.pid == pid && e.size == size && e.vpn == va.VPN(size) {
		t.lookups.Hit()
		return e.pfn, true
	}
	t.lookups.Miss()
	return 0, false
}

// Peek reports whether the buffer holds the page's translation without
// touching the lookup statistics — the conformance suite's logical
// residual probe.
func (t *TSB) Peek(vm addr.VMID, pid addr.PID, vpn uint64, size addr.PageSize) bool {
	e := t.slots.Read(t.index(vm, vpn))[0]
	return e.valid && e.vm == vm && e.pid == pid && e.size == size && e.vpn == vpn
}

// Insert stores a resolved translation, displacing whatever lived in the
// slot (direct-mapped: no choice of victim).
func (t *TSB) Insert(vm addr.VMID, pid addr.PID, vpn, pfn uint64, size addr.PageSize) {
	s := &t.slots.Write(t.index(vm, vpn))[0]
	if s.valid {
		t.Conflicts++
	}
	*s = entry{vm: vm, pid: pid, vpn: vpn, pfn: pfn, size: size, valid: true}
}

// InvalidatePage removes one translation (shootdown).
func (t *TSB) InvalidatePage(vm addr.VMID, pid addr.PID, vpn uint64, size addr.PageSize) bool {
	e := &t.slots.Read(t.index(vm, vpn))[0]
	if e.valid && e.vm == vm && e.pid == pid && e.vpn == vpn && e.size == size {
		// Only an allocated chunk holds a valid slot, so this write never
		// reaches the shared zero slot.
		*e = entry{}
		return true
	}
	return false
}

// InvalidateProcess removes every entry of (vm, pid).
func (t *TSB) InvalidateProcess(vm addr.VMID, pid addr.PID) int {
	n := 0
	for ci := range t.slots.NumChunks() {
		_, c := t.slots.Chunk(ci)
		for i := range c {
			if e := &c[i]; e.valid && e.vm == vm && e.pid == pid {
				*e = entry{}
				n++
			}
		}
	}
	return n
}

// Count returns the number of live entries.
func (t *TSB) Count() int {
	n := 0
	for ci := range t.slots.NumChunks() {
		_, c := t.slots.Chunk(ci)
		for _, e := range c {
			if e.valid {
				n++
			}
		}
	}
	return n
}

// Stats returns the lookup hit/miss counters.
func (t *TSB) Stats() stats.HitMiss { return t.lookups }

// ResetStats clears the counters; buffer contents are untouched.
func (t *TSB) ResetStats() {
	t.lookups = stats.HitMiss{}
	t.Conflicts = 0
}
