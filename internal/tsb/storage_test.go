package tsb

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/addr"
)

func TestEntryHostSize(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 24 {
		t.Errorf("host slot is %d bytes, want 24", got)
	}
}

// refTSB is the eager reference: the whole slot array allocated up front,
// exactly as the TSB stored it before its slots moved to chunked storage.
type refTSB struct {
	slots     []entry
	mask      uint64
	conflicts uint64
}

func newRefTSB(cfg Config) *refTSB {
	n := cfg.SizeBytes / EntryBytes
	for n&(n-1) != 0 {
		n &= n - 1
	}
	return &refTSB{slots: make([]entry, n), mask: n - 1}
}

func (r *refTSB) index(vm addr.VMID, vpn uint64) uint64 { return (vpn ^ uint64(vm)) & r.mask }

func (r *refTSB) lookup(vm addr.VMID, pid addr.PID, vpn uint64, size addr.PageSize) (uint64, bool) {
	e := r.slots[r.index(vm, vpn)]
	if e.valid && e.vm == vm && e.pid == pid && e.size == size && e.vpn == vpn {
		return e.pfn, true
	}
	return 0, false
}

func (r *refTSB) insert(vm addr.VMID, pid addr.PID, vpn, pfn uint64, size addr.PageSize) {
	i := r.index(vm, vpn)
	if r.slots[i].valid {
		r.conflicts++
	}
	r.slots[i] = entry{vm: vm, pid: pid, vpn: vpn, pfn: pfn, size: size, valid: true}
}

func (r *refTSB) invalidatePage(vm addr.VMID, pid addr.PID, vpn uint64, size addr.PageSize) bool {
	e := &r.slots[r.index(vm, vpn)]
	if e.valid && e.vm == vm && e.pid == pid && e.vpn == vpn && e.size == size {
		*e = entry{}
		return true
	}
	return false
}

func (r *refTSB) invalidateProcess(vm addr.VMID, pid addr.PID) int {
	n := 0
	for i := range r.slots {
		if e := &r.slots[i]; e.valid && e.vm == vm && e.pid == pid {
			*e = entry{}
			n++
		}
	}
	return n
}

func (r *refTSB) count() int {
	n := 0
	for _, e := range r.slots {
		if e.valid {
			n++
		}
	}
	return n
}

// TestLockstepWithEagerReference drives the chunked TSB and the eager
// reference with the same random operation stream: every lookup, peek,
// invalidation result, conflict count and live count must agree.
func TestLockstepWithEagerReference(t *testing.T) {
	for _, sizeBytes := range []uint64{DefaultConfig().SizeBytes, 64 << 10, 4 * EntryBytes} {
		cfg := DefaultConfig()
		cfg.SizeBytes = sizeBytes
		b, ref := MustNew(cfg), newRefTSB(cfg)
		rng := rand.New(rand.NewSource(int64(sizeBytes)))
		for i := 0; i < 50_000; i++ {
			vm, pid := addr.VMID(rng.Intn(3)), addr.PID(rng.Intn(4))
			size := addr.Page4K
			if rng.Intn(4) == 0 {
				size = addr.Page2M
			}
			vpn := uint64(rng.Intn(1 << 22))
			switch op := rng.Intn(1000); {
			case op < 450:
				pfn, ok := b.Lookup(vm, pid, addr.VA(vpn<<size.Shift()), size)
				rpfn, rok := ref.lookup(vm, pid, vpn, size)
				if pfn != rpfn || ok != rok {
					t.Fatalf("%d B, op %d: lookup = %#x,%v, reference %#x,%v", sizeBytes, i, pfn, ok, rpfn, rok)
				}
				if peek := b.Peek(vm, pid, vpn, size); peek != rok {
					t.Fatalf("%d B, op %d: peek = %v, reference %v", sizeBytes, i, peek, rok)
				}
			case op < 900:
				pfn := uint64(rng.Int63n(1 << 30))
				b.Insert(vm, pid, vpn, pfn, size)
				ref.insert(vm, pid, vpn, pfn, size)
			case op < 998:
				if got, want := b.InvalidatePage(vm, pid, vpn, size), ref.invalidatePage(vm, pid, vpn, size); got != want {
					t.Fatalf("%d B, op %d: invalidate page = %v, reference %v", sizeBytes, i, got, want)
				}
			default:
				if got, want := b.InvalidateProcess(vm, pid), ref.invalidateProcess(vm, pid); got != want {
					t.Fatalf("%d B, op %d: invalidate process = %d, reference %d", sizeBytes, i, got, want)
				}
			}
			if b.Conflicts != ref.conflicts {
				t.Fatalf("%d B, op %d: conflicts %d, reference %d", sizeBytes, i, b.Conflicts, ref.conflicts)
			}
		}
		if got, want := b.Count(), ref.count(); got != want || got == 0 {
			t.Errorf("%d B: count %d, reference %d", sizeBytes, got, want)
		}
		if b.Slots() != uint64(len(ref.slots)) {
			t.Errorf("%d B: %d slots, reference %d", sizeBytes, b.Slots(), len(ref.slots))
		}
		if !b.slots.ZeroIntact() {
			t.Errorf("%d B: zero slot written", sizeBytes)
		}
	}
}

func TestReadsNeverAllocate(t *testing.T) {
	b := MustNew(DefaultConfig())
	for i := uint64(0); i < 4096; i++ {
		vpn := i * 0x9e3779b97f4a7c15 >> 20
		vm, pid := addr.VMID(i%5), addr.PID(i%7)
		b.Lookup(vm, pid, addr.VA(vpn<<12), addr.Page4K)
		b.Peek(vm, pid, vpn, addr.Page2M)
		b.InvalidatePage(vm, pid, vpn, addr.Page4K)
	}
	b.InvalidateProcess(1, 1)
	if b.Count() != 0 || b.slots.Allocated() != 0 {
		t.Errorf("read-only calls: count %d, %d chunks allocated", b.Count(), b.slots.Allocated())
	}
	b.Insert(3, 4, 0x12345, 1, addr.Page4K)
	if n := b.slots.Allocated(); n != 1 {
		t.Fatalf("one insert allocated %d chunks", n)
	}
	if _, c := b.slots.Chunk(b.slots.ChunkOf(b.index(3, 0x12345))); c == nil {
		t.Error("the inserted slot's chunk is not the allocated one")
	}
}
