package tlb

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/addr"
)

// stampScanVictim is the victim scan Insert used before it became a
// first-minimum pass over the LRU stamps: the first invalid slot, else
// the LRU slot.
func stampScanVictim(set []slot) int {
	vi := 0
	for i := range set {
		if !set[i].entry.Valid {
			vi = i
			break
		}
		if set[i].lru < set[vi].lru {
			vi = i
		}
	}
	return vi
}

// scanLookup is Lookup without the per-size filter and without side
// effects: every size is probed by a full set scan.
func scanLookup(t *TLB, vm addr.VMID, pid addr.PID, va addr.VA) (Entry, bool) {
	for _, size := range []addr.PageSize{addr.Page4K, addr.Page2M, addr.Page1G} {
		vpn := va.VPN(size)
		for _, s := range t.setFor(vpn) {
			if s.entry.matches(vm, pid, vpn, size) {
				return s.entry, true
			}
		}
	}
	return Entry{}, false
}

// TestInsertVictimAndLookupMatchStampScan drives small TLBs with random
// lookups, inserts of all three page sizes and invalidations —
// InvalidatePage, InvalidateProcess and InvalidateVM leave holes anywhere
// in a set — and asserts that every insert of an absent entry lands in
// the slot the old stamp scan picks, with the victim it implies, and that
// every size-filtered Lookup returns what a full scan of all sizes finds.
func TestInsertVictimAndLookupMatchStampScan(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 12} {
		t.Run(fmt.Sprintf("%dway", ways), func(t *testing.T) {
			tl := MustNew(Config{Name: "lockstep", Entries: 4 * ways, Ways: ways})
			r := rand.New(rand.NewSource(int64(ways)))
			vpns := 4 * ways * 3
			for op := 0; op < 30000; op++ {
				vm, pid := addr.VMID(1+r.Intn(3)), addr.PID(1+r.Intn(3))
				// Sizes are skewed so that 1 GB entries are often absent
				// and the filter skips their probes.
				size := addr.Page4K
				switch x := r.Intn(50); {
				case x == 0:
					size = addr.Page1G
				case x < 6:
					size = addr.Page2M
				}
				vpn := uint64(r.Intn(vpns))
				switch x := r.Intn(100); {
				case x < 40:
					va := addr.VA(vpn<<size.Shift() | uint64(r.Intn(4096)))
					want, wok := scanLookup(tl, vm, pid, va)
					got, gok := tl.Lookup(vm, pid, va)
					if got != want || gok != wok {
						t.Fatalf("op %d: Lookup(%d,%d,%v) = %+v,%v, full scan %+v,%v", op, vm, pid, va, got, gok, want, wok)
					}
				case x < 85:
					e := Entry{VM: vm, PID: pid, VPN: vpn, PFN: uint64(r.Intn(64)), Size: size, Valid: true}
					if tl.LookupOnly(vm, pid, vpn, size) {
						if _, evicted := tl.Insert(e); evicted {
							t.Fatalf("op %d: refresh of %+v evicted", op, e)
						}
						break
					}
					set := tl.setFor(vpn)
					vi := stampScanVictim(set)
					old := set[vi].entry
					victim, evicted := tl.Insert(e)
					if set[vi].entry != e {
						t.Fatalf("op %d: insert of %+v did not land in slot %d the stamp scan picks", op, e, vi)
					}
					if evicted != old.Valid || (evicted && victim != old) {
						t.Fatalf("op %d: insert evicted %+v,%v, stamp scan %+v,%v", op, victim, evicted, old, old.Valid)
					}
				case x < 93:
					tl.InvalidatePage(vm, pid, vpn, size)
				case x < 97:
					tl.InvalidateProcess(vm, pid)
				case x < 99:
					tl.InvalidateVM(vm)
				default:
					tl.InvalidateAll()
				}
				if err := tl.CheckInvariants(); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
			}
		})
	}
}

// TestInvariantsCatchStaleSizeCount checks that CheckInvariants sees a
// per-size count out of step with the entries and a stamp left on an
// invalid slot.
func TestInvariantsCatchStaleSizeCount(t *testing.T) {
	tl := MustNew(Config{Name: "t", Entries: 8, Ways: 4})
	tl.Insert(entry4K(1, 1, 0, 1))
	if err := tl.CheckInvariants(); err != nil {
		t.Fatalf("clean TLB: %v", err)
	}
	tl.bySize[sizeBucket(addr.Page2M)]++
	if tl.CheckInvariants() == nil {
		t.Error("stale 2 MB count not caught")
	}
	tl.bySize[sizeBucket(addr.Page2M)]--
	tl.slots[3].lru = 5
	if tl.CheckInvariants() == nil {
		t.Error("stamp on an invalid slot not caught")
	}
}

// TestLookupOfEmptySizeReportsToShadow checks that a probe the per-size
// filter skips is still reported, as a miss, to an attached observer.
func TestLookupOfEmptySizeReportsToShadow(t *testing.T) {
	tl := MustNew(L2Unified())
	var probes []addr.PageSize
	tl.SetShadow(probeRecorder{&probes})
	tl.Lookup(1, 1, 0x1234_5000)
	if len(probes) != 3 || probes[0] != addr.Page4K || probes[1] != addr.Page2M || probes[2] != addr.Page1G {
		t.Errorf("probes reported for an empty TLB = %v, want 4KB 2MB 1GB", probes)
	}
}

type probeRecorder struct{ sizes *[]addr.PageSize }

func (p probeRecorder) LookupSize(_ addr.VMID, _ addr.PID, _ addr.VA, size addr.PageSize, hit bool, _ Entry) {
	if !hit {
		*p.sizes = append(*p.sizes, size)
	}
}
func (probeRecorder) Insert(Entry, Entry, bool)                                       {}
func (probeRecorder) InvalidatePage(addr.VMID, addr.PID, uint64, addr.PageSize, bool) {}
func (probeRecorder) InvalidateProcess(addr.VMID, addr.PID, int)                      {}
func (probeRecorder) InvalidateVM(addr.VMID, int)                                     {}
func (probeRecorder) InvalidateAll()                                                  {}

// TestSplitL1MissRatioCountsHugeHits is the regression test for 1 GB L1
// hits being left out of the combined miss ratio: one miss and one 1 GB
// hit is a ratio of 1/2, not 1.
func TestSplitL1MissRatioCountsHugeHits(t *testing.T) {
	l1 := DefaultSplitL1()
	va := addr.VA(0x40_0000_0000)
	if _, ok := l1.Lookup(1, 1, va); ok {
		t.Fatal("cold lookup hit")
	}
	l1.Insert(Entry{VM: 1, PID: 1, VPN: va.VPN(addr.Page1G), PFN: 0x33, Size: addr.Page1G, Valid: true})
	if _, ok := l1.Lookup(1, 1, va); !ok {
		t.Fatal("1 GB lookup missed")
	}
	if got := l1.MissRatio(); got != 0.5 {
		t.Errorf("MissRatio = %v after one miss and one 1 GB hit, want 0.5", got)
	}
}
