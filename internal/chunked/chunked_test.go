package chunked

import "testing"

func TestGeometry(t *testing.T) {
	for _, tc := range []struct {
		groups     uint64
		width      int
		shift      uint
		wantChunks int
	}{
		{1024, 4, 8, 4},
		{1, 2, 8, 1},  // one group: the chunk shrinks to it
		{64, 4, 8, 1}, // fewer groups than one chunk
		{5, 3, 1, 3},  // last chunk cut short
	} {
		a := Make[int](tc.groups, tc.width, tc.shift)
		if a.Len() != tc.groups || a.NumChunks() != tc.wantChunks {
			t.Errorf("%+v: len %d chunks %d", tc, a.Len(), a.NumChunks())
		}
		for g := uint64(0); g < tc.groups; g++ {
			w := a.Write(g)
			if len(w) != tc.width || cap(w) != tc.width {
				t.Fatalf("%+v: group %d has len %d cap %d", tc, g, len(w), cap(w))
			}
			for i := range w {
				w[i] = int(g)*tc.width + i + 1
			}
		}
		if a.Allocated() != tc.wantChunks {
			t.Errorf("%+v: %d chunks allocated after writing every group", tc, a.Allocated())
		}
		total := 0
		for ci := range a.NumChunks() {
			first, c := a.Chunk(ci)
			for i, v := range c {
				if want := int(first)*tc.width + i + 1; v != want {
					t.Fatalf("%+v: chunk %d element %d = %d, want %d", tc, ci, i, v, want)
				}
			}
			total += len(c)
		}
		if total != int(tc.groups)*tc.width {
			t.Errorf("%+v: chunks hold %d elements, want %d", tc, total, int(tc.groups)*tc.width)
		}
	}
}

func TestReadNeverAllocates(t *testing.T) {
	a := Make[int](1<<12, 4, 8)
	for g := uint64(0); g < a.Len(); g++ {
		for _, v := range a.Read(g) {
			if v != 0 {
				t.Fatalf("unwritten group %d reads %d", g, v)
			}
		}
	}
	if a.Allocated() != 0 {
		t.Fatalf("reads allocated %d chunks", a.Allocated())
	}
	a.Write(300)[1] = 7
	if a.Allocated() != 1 || a.ChunkOf(300) != 1 {
		t.Fatalf("one write: %d chunks allocated, group 300 in chunk %d", a.Allocated(), a.ChunkOf(300))
	}
	if _, c := a.Chunk(1); c == nil {
		t.Fatal("chunk of the written group not allocated")
	}
	if got := a.Read(300)[1]; got != 7 {
		t.Errorf("read after write = %d", got)
	}
	if got := a.Read(301)[1]; got != 0 {
		t.Errorf("neighbour in a fresh chunk = %d", got)
	}
	if !a.ZeroIntact() {
		t.Error("zero group modified by a write")
	}
	a.Read(0)[0] = 1 // a caller breaking the read-only contract
	if a.ZeroIntact() {
		t.Error("ZeroIntact missed a write through Read")
	}
}
