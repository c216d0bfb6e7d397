// Package chunked provides a large, fixed-geometry array whose host
// memory is allocated in power-of-two chunks on the first write into
// each chunk.
//
// The modelled DRAM-resident translation tables (the 16 MB POM-TLB and
// the 16 MB TSB) are mostly empty in any one run: a trace writes a few
// of their sets and never reads the rest as anything but "invalid". An
// Array keeps the modelled geometry (every group index stays addressable)
// while host memory follows the chunks a run actually writes.
//
// The array is a sequence of groups (a set of ways, or one direct-mapped
// slot), each Width elements wide. A chunk holds a power-of-two number of
// whole groups, so the chunk of group g is g >> shift and its offset
// within the chunk is g & mask: no division on the hot path.
//
// Contract:
//   - Read never allocates. A group in a chunk that was never written
//     reads as a shared, all-zero group that callers must not modify;
//     a zero element must therefore mean "invalid" to the caller.
//   - Write allocates the group's chunk if needed; a chunk, once
//     allocated, is never freed.
package chunked

// Array is a chunked array of Len groups of Width elements. The zero
// value is an empty array; build one with Make.
type Array[T comparable] struct {
	chunks [][]T  // nil until the chunk's first write
	zero   []T    // the shared all-zero group unwritten chunks read as
	groups uint64 // number of groups
	width  uint64 // elements per group
	shift  uint   // log2 of groups per chunk
	mask   uint64 // groups per chunk - 1
	live   int    // allocated chunks
}

// Make returns an array of groups groups of width elements each, stored
// in chunks of 1<<chunkShift groups (fewer when the whole array is
// smaller than one chunk). It panics on a zero width.
func Make[T comparable](groups uint64, width int, chunkShift uint) Array[T] {
	if width <= 0 {
		panic("chunked: width must be positive")
	}
	for chunkShift > 0 && uint64(1)<<chunkShift > groups {
		chunkShift--
	}
	per := uint64(1) << chunkShift
	return Array[T]{
		chunks: make([][]T, (groups+per-1)/per),
		zero:   make([]T, width),
		groups: groups,
		width:  uint64(width),
		shift:  chunkShift,
		mask:   per - 1,
	}
}

// Len returns the number of groups.
func (a *Array[T]) Len() uint64 { return a.groups }

// Read returns group g without allocating. The slice aliases the array's
// storage (or the shared zero group) and must not be modified; callers
// that need to write after a read call Write for the same group.
func (a *Array[T]) Read(g uint64) []T {
	c := a.chunks[g>>a.shift]
	if c == nil {
		return a.zero
	}
	o := (g & a.mask) * a.width
	return c[o : o+a.width : o+a.width]
}

// Write returns group g for modification, allocating its chunk on the
// first write into it.
func (a *Array[T]) Write(g uint64) []T {
	ci := g >> a.shift
	c := a.chunks[ci]
	if c == nil {
		c = a.alloc(ci)
	}
	o := (g & a.mask) * a.width
	return c[o : o+a.width : o+a.width]
}

// alloc allocates chunk ci; the last chunk is cut short when the group
// count is not a multiple of the chunk size.
func (a *Array[T]) alloc(ci uint64) []T {
	first := ci << a.shift
	n := min(a.mask+1, a.groups-first)
	c := make([]T, n*a.width)
	a.chunks[ci] = c
	a.live++
	return c
}

// NumChunks returns the number of chunk slots, allocated or not.
func (a *Array[T]) NumChunks() int { return len(a.chunks) }

// Allocated returns how many chunks have been allocated.
func (a *Array[T]) Allocated() int { return a.live }

// Chunk returns chunk ci's elements and the index of its first group, or
// a nil slice when the chunk was never written. Scans over every valid
// element walk the allocated chunks only.
func (a *Array[T]) Chunk(ci int) (first uint64, elems []T) {
	return uint64(ci) << a.shift, a.chunks[ci]
}

// ChunkOf returns the index of the chunk holding group g.
func (a *Array[T]) ChunkOf(g uint64) int { return int(g >> a.shift) }

// ZeroIntact reports whether the shared zero group still holds only zero
// values — false means a caller wrote through a slice Read returned.
func (a *Array[T]) ZeroIntact() bool {
	var z T
	for _, e := range a.zero {
		if e != z {
			return false
		}
	}
	return true
}
