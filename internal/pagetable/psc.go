package pagetable

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/stats"
)

// lruList is the fully-associative, exact-LRU store behind the PSCs and
// the nested TLB. Only reset (InvalidateAll) ever drops entries, so the
// valid entries are always the prefix [0,n): a miss fills slot n until
// the store is full and then reuses the least recently used slot, which
// is the tail of a doubly-linked recency list — found in O(1) instead of
// by a scan of LRU stamps.
//
// An entry is identified by a packed key plus a 32-bit tag holding the
// fields the packing folds in with XOR; a probe must match both, so two
// distinct identities never alias even when their packed keys collide.
type lruList struct {
	keys []uint64 // packed keys of entries [0,n), scanned on every probe
	tags []uint32
	vals []uint64
	// prev and next link the recency list from head (most recently used)
	// to tail (least recently used); -1 ends it.
	prev, next []int32
	head, tail int32
	n          int
}

func newLRUList(capacity int) lruList {
	return lruList{
		keys: make([]uint64, capacity),
		tags: make([]uint32, capacity),
		vals: make([]uint64, capacity),
		prev: make([]int32, capacity),
		next: make([]int32, capacity),
		head: -1,
		tail: -1,
	}
}

// find returns the slot holding (key, tag), or -1.
func (l *lruList) find(key uint64, tag uint32) int {
	for i, k := range l.keys[:l.n] {
		if k == key && l.tags[i] == tag {
			return i
		}
	}
	return -1
}

// pushFront links slot i in as the most recently used entry.
func (l *lruList) pushFront(i int32) {
	l.prev[i] = -1
	l.next[i] = l.head
	if l.head >= 0 {
		l.prev[l.head] = i
	} else {
		l.tail = i
	}
	l.head = i
}

// touch makes slot i the most recently used entry.
func (l *lruList) touch(i int32) {
	if l.head == i {
		return
	}
	p, nx := l.prev[i], l.next[i]
	l.next[p] = nx // i is not the head, so it has a predecessor
	if nx >= 0 {
		l.prev[nx] = p
	} else {
		l.tail = p
	}
	l.pushFront(i)
}

// insert stores (key, tag) → val as the most recently used entry: it
// refreshes a present entry, fills the next empty slot, or replaces the
// least recently used entry when the store is full.
func (l *lruList) insert(key uint64, tag uint32, val uint64) {
	if i := l.find(key, tag); i >= 0 {
		l.vals[i] = val
		l.touch(int32(i))
		return
	}
	var i int32
	if l.n < len(l.keys) {
		i = int32(l.n)
		l.n++
		l.pushFront(i)
	} else {
		i = l.tail
		l.touch(i)
	}
	l.keys[i], l.tags[i], l.vals[i] = key, tag, val
}

// reset drops every entry.
func (l *lruList) reset() {
	l.n = 0
	l.head, l.tail = -1, -1
}

// checkInvariants validates the structure the O(1) victim relies on: the
// recency list, walked from head to tail with consistent back links, is a
// permutation of the valid prefix [0,n), and no identity is stored twice.
func (l *lruList) checkInvariants(name string) error {
	if l.n < 0 || l.n > len(l.keys) {
		return fmt.Errorf("%s: %d valid entries in a capacity of %d", name, l.n, len(l.keys))
	}
	seen := make([]bool, l.n)
	count := 0
	prev := int32(-1)
	for i := l.head; i >= 0; i = l.next[i] {
		if int(i) >= l.n {
			return fmt.Errorf("%s: recency list reaches slot %d beyond the %d valid entries", name, i, l.n)
		}
		if seen[i] {
			return fmt.Errorf("%s: recency list visits slot %d twice", name, i)
		}
		if l.prev[i] != prev {
			return fmt.Errorf("%s: slot %d links back to %d, its predecessor is %d", name, i, l.prev[i], prev)
		}
		seen[i] = true
		count++
		prev = i
	}
	if count != l.n {
		return fmt.Errorf("%s: recency list holds %d of the %d valid entries", name, count, l.n)
	}
	if l.tail != prev {
		return fmt.Errorf("%s: tail is slot %d, the list ends at %d", name, l.tail, prev)
	}
	type ident struct {
		key uint64
		tag uint32
	}
	slot := make(map[ident]int, l.n)
	for i := 0; i < l.n; i++ {
		id := ident{l.keys[i], l.tags[i]}
		if j, dup := slot[id]; dup {
			return fmt.Errorf("%s: slots %d and %d hold the same key %#x/%#x", name, j, i, id.key, id.tag)
		}
		slot[id] = i
	}
	return nil
}

// PSC is one page-structure cache (MMU cache) level: a tiny fully-
// associative cache from a virtual-address prefix to the address of the
// radix node that serves the next level of the walk, letting the walker
// skip the upper levels (Table 1: PML4 2 entries, PDP 4, PDE 32, 2 cycles).
type PSC struct {
	name  string
	lru   lruList
	stats stats.HitMiss
}

// pscKey packs a PSC identity: the (vm, pid) context is the tag and is
// also XORed into bits 32 and up of the key, above every prefix of a
// 48-bit virtual address, so contexts sharing a prefix get distinct keys.
func pscKey(vm addr.VMID, pid addr.PID, prefix uint64) (uint64, uint32) {
	ctx := uint32(vm)<<16 | uint32(pid)
	return prefix ^ uint64(ctx)<<32, ctx
}

// NewPSC creates a page-structure cache with the given capacity.
func NewPSC(name string, capacity int) *PSC {
	if capacity <= 0 {
		panic("pagetable: PSC capacity must be positive")
	}
	return &PSC{name: name, lru: newLRUList(capacity)}
}

// Lookup returns the cached node address for the prefix.
func (p *PSC) Lookup(vm addr.VMID, pid addr.PID, prefix uint64) (uint64, bool) {
	if i := p.lru.find(pscKey(vm, pid, prefix)); i >= 0 {
		p.lru.touch(int32(i))
		p.stats.Hit()
		return p.lru.vals[i], true
	}
	p.stats.Miss()
	return 0, false
}

// Insert caches prefix → node, evicting the LRU entry when full.
func (p *PSC) Insert(vm addr.VMID, pid addr.PID, prefix, node uint64) {
	key, tag := pscKey(vm, pid, prefix)
	p.lru.insert(key, tag, node)
}

// InvalidateAll flushes the cache (context switch / shootdown).
func (p *PSC) InvalidateAll() { p.lru.reset() }

// Stats returns the hit/miss counters.
func (p *PSC) Stats() stats.HitMiss { return p.stats }

// CheckInvariants validates the recency list and key uniqueness.
func (p *PSC) CheckInvariants() error { return p.lru.checkInvariants("PSC " + p.name) }

// NestedTLB caches completed gPA→hPA translations at 4 KB granularity so
// repeated host-dimension walks of hot guest frames are skipped — the
// "nested TLB" of Intel's EPT hardware. Fully associative, LRU.
type NestedTLB struct {
	lru   lruList
	stats stats.HitMiss
}

// nestedKey packs a nested-TLB identity: the VM is the tag and is also
// XORed into bits 48 and up of the key, above every frame number of a
// guest-physical space below 2^60 bytes, so VMs sharing a frame number
// get distinct keys.
func nestedKey(vm addr.VMID, gpfn uint64) (uint64, uint32) {
	return gpfn ^ uint64(vm)<<48, uint32(vm)
}

// NewNestedTLB creates a nested TLB with the given capacity.
func NewNestedTLB(capacity int) *NestedTLB {
	if capacity <= 0 {
		panic("pagetable: nested TLB capacity must be positive")
	}
	return &NestedTLB{lru: newLRUList(capacity)}
}

// Lookup translates a guest-physical frame number.
func (n *NestedTLB) Lookup(vm addr.VMID, gpfn uint64) (uint64, bool) {
	if i := n.lru.find(nestedKey(vm, gpfn)); i >= 0 {
		n.lru.touch(int32(i))
		n.stats.Hit()
		return n.lru.vals[i], true
	}
	n.stats.Miss()
	return 0, false
}

// Insert caches gpfn → host frame base.
func (n *NestedTLB) Insert(vm addr.VMID, gpfn, hbase uint64) {
	key, tag := nestedKey(vm, gpfn)
	n.lru.insert(key, tag, hbase)
}

// InvalidateAll flushes the nested TLB.
func (n *NestedTLB) InvalidateAll() { n.lru.reset() }

// Stats returns the hit/miss counters.
func (n *NestedTLB) Stats() stats.HitMiss { return n.stats }

// CheckInvariants validates the recency list and key uniqueness.
func (n *NestedTLB) CheckInvariants() error { return n.lru.checkInvariants("nested TLB") }
