package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// stampScanVictim is the victim scan Fill used before the kind-blind
// policy became a first-minimum pass over the LRU stamps: the first
// invalid way, else the LRU way, with non-preferred lines evicted first
// under a priority policy.
func stampScanVictim(set []way, p Priority) int {
	victim := -1
	victimPreferred := false
	pref, hasPref := p.preferred()
	for i := range set {
		w := &set[i]
		if !w.valid {
			victim = i
			victimPreferred = false
			break
		}
		wPreferred := hasPref && w.kind == pref
		switch {
		case victim == -1:
			victim, victimPreferred = i, wPreferred
		case victimPreferred && !wPreferred:
			victim, victimPreferred = i, wPreferred
		case victimPreferred == wPreferred && w.lru < set[victim].lru:
			victim = i
		}
	}
	return victim
}

// TestFillVictimMatchesStampScan drives small caches under every policy
// with random accesses, fills and invalidations — Invalidate and
// InvalidateKind leave holes anywhere in a set — and asserts that every
// fill of an absent line lands in the way the old stamp scan picks, with
// the eviction it implies.
func TestFillVictimMatchesStampScan(t *testing.T) {
	for _, p := range []Priority{NoPriority, PreferTLB, PreferData} {
		for _, ways := range []int{1, 2, 4, 16} {
			t.Run(fmt.Sprintf("%s/%dway", p, ways), func(t *testing.T) {
				c := MustNew(Config{Name: "lockstep", SizeBytes: uint64(4 * ways * 64), Ways: ways, Latency: 1, Priority: p})
				r := rand.New(rand.NewSource(int64(ways)*7 + int64(p)))
				lines := uint64(4 * ways * 3)
				for op := 0; op < 30000; op++ {
					line := uint64(r.Int63n(int64(lines)))
					kind := Kind(r.Intn(2))
					write := r.Intn(2) == 0
					switch x := r.Intn(100); {
					case x < 30:
						c.Access(line, write, kind)
					case x < 85:
						if c.Lookup(line) {
							c.Fill(line, write, kind)
							break
						}
						set := c.setFor(line)
						vi := stampScanVictim(set, p)
						old := set[vi]
						ev := c.Fill(line, write, kind)
						if set[vi].tag != line || !set[vi].valid {
							t.Fatalf("op %d: fill of %#x did not land in way %d the stamp scan picks", op, line, vi)
						}
						want := Eviction{}
						if old.valid {
							want = Eviction{Valid: true, Line: old.tag, Dirty: old.dirty, Kind: old.kind}
						}
						if ev != want {
							t.Fatalf("op %d: fill of %#x evicted %+v, stamp scan %+v", op, line, ev, want)
						}
					case x < 98:
						c.Invalidate(line)
					default:
						c.InvalidateKind(kind)
					}
					if err := c.CheckInvariants(); err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
				}
			})
		}
	}
}

// TestInvariantsCatchStampOnInvalidWay checks that CheckInvariants sees
// an invalid way with a nonzero stamp, which would make Fill's
// first-minimum pass pass over the hole.
func TestInvariantsCatchStampOnInvalidWay(t *testing.T) {
	c := MustNew(Config{Name: "t", SizeBytes: 4 * 64, Ways: 4, Latency: 1})
	c.Fill(0, false, Data)
	c.Fill(4, false, Data)
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("clean cache: %v", err)
	}
	c.ways[3].lru = 9
	if c.CheckInvariants() == nil {
		t.Error("stamp on an invalid way not caught")
	}
}
