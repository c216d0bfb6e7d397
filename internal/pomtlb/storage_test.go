package pomtlb

import (
	"testing"
	"unsafe"

	"repro/internal/addr"
)

func TestEntryHostSize(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 24 {
		t.Errorf("host Entry is %d bytes, want 24", got)
	}
}

// readAll exercises every read-only method of the TLB over a spread of
// addresses, VMs and processes.
func readAll(t *testing.T, tl *TLB) {
	t.Helper()
	for _, p := range []*Partition{tl.Small, tl.Large} {
		for i := uint64(0); i < 4096; i++ {
			va := addr.VA(i * 0x9e3779b97f4a7c15 & (1<<47 - 1))
			vm, pid := addr.VMID(i%5), addr.PID(i%7)
			p.Search(vm, pid, va)
			p.InvalidatePage(vm, pid, va.VPN(p.PageSize))
			p.SetView(va, vm)
			p.SetEntries(va, vm)
			p.SetImage(p.SetIndex(va, vm))
		}
		p.InvalidateProcess(1, 1)
		p.InvalidateVM(1)
	}
	if err := tl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReadsNeverAllocate(t *testing.T) {
	tl := New(DefaultConfig())
	readAll(t, tl)
	for _, p := range []*Partition{tl.Small, tl.Large} {
		if n := p.sets.Allocated(); n != 0 {
			t.Errorf("%s: read-only calls allocated %d of %d chunks", p.PageSize, n, p.sets.NumChunks())
		}
		if st := p.Stats(); st.Hits != 0 || st.Misses != 4096 {
			t.Errorf("%s: searches of a fresh partition: %+v", p.PageSize, st)
		}
	}
}

func TestInsertAllocatesOnlyItsChunk(t *testing.T) {
	tl := New(DefaultConfig())
	va := addr.VA(0x7f00_1234_5000)
	e := validEntry(2, 3, va.VPN(addr.Page4K), 0x42, addr.Page4K)
	tl.Small.Insert(e)
	p := tl.Small
	if n := p.sets.Allocated(); n != 1 {
		t.Fatalf("one insert allocated %d chunks", n)
	}
	if _, c := p.sets.Chunk(p.sets.ChunkOf(p.SetIndex(va, 2))); c == nil {
		t.Fatal("the inserted set's chunk is not the allocated one")
	}
	if tl.Large.sets.Allocated() != 0 {
		t.Error("insert into the small partition allocated in the large one")
	}
	if got, ok := p.Search(2, 3, va); !ok || got.PFN != 0x42 {
		t.Errorf("search after insert = %v, %v", got, ok)
	}
	readAll(t, tl)
	if n := p.sets.Allocated(); n != 1 {
		t.Errorf("reads after one insert left %d chunks allocated", n)
	}
}

func TestZeroSetStaysZero(t *testing.T) {
	tl := New(DefaultConfig())
	for i := uint64(0); i < 2000; i++ {
		tl.Small.Insert(validEntry(addr.VMID(i%3), 1, i*977, i, addr.Page4K))
	}
	tl.InvalidateVM(1)
	readAll(t, tl)
	p := tl.Small
	if !p.sets.ZeroIntact() {
		t.Fatal("zero set written by ordinary operations")
	}
	// Find a set whose chunk was never written and corrupt the shared
	// zero set through it, as a buggy in-place SetView caller would.
	for si := uint64(0); si < p.Sets(); si++ {
		if _, c := p.sets.Chunk(p.sets.ChunkOf(si)); c == nil {
			p.sets.Read(si)[0].LRU = 1
			break
		}
	}
	if err := p.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants accepted a corrupted zero set")
	}
}

// TestSubChunkGeometries: partitions with fewer sets than one storage
// chunk (down to a single 2-way set) behave as a plain set-associative
// array.
func TestSubChunkGeometries(t *testing.T) {
	for _, tc := range []struct {
		bytes    uint64
		ways     int
		wantSets uint64
	}{
		{2 * EntryBytes, 2, 1},
		{64 * 4 * EntryBytes, 4, 64},
	} {
		p := newPartition(addr.Page4K, 0, tc.bytes, tc.ways)
		if p.Sets() != tc.wantSets || p.sets.NumChunks() != 1 {
			t.Fatalf("%+v: %d sets in %d chunks", tc, p.Sets(), p.sets.NumChunks())
		}
		// Fill one set past its ways: the first entry is the LRU victim.
		var vpns []uint64
		for v := uint64(0); len(vpns) <= tc.ways; v++ {
			if p.setIndexForVPN(v, 1) == 0 {
				vpns = append(vpns, v)
			}
		}
		for i, v := range vpns {
			victim, evicted := p.Insert(validEntry(1, 1, v, v+100, addr.Page4K))
			if want := i == tc.ways; evicted != want || (evicted && victim.VPN != vpns[0]) {
				t.Fatalf("%+v: insert %d evicted=%v victim=%v", tc, i, evicted, victim)
			}
		}
		if p.Count() != tc.ways {
			t.Errorf("%+v: count %d, want %d", tc, p.Count(), tc.ways)
		}
		if _, ok := p.Search(1, 1, addr.VA(vpns[tc.ways]<<12)); !ok {
			t.Errorf("%+v: newest entry missing", tc)
		}
		if !p.InvalidatePage(1, 1, vpns[tc.ways]) || p.InvalidateProcess(1, 1) != tc.ways-1 || p.Count() != 0 {
			t.Errorf("%+v: invalidation left %d entries", tc, p.Count())
		}
		if err := p.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
}
