package pagetable

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/addr"
)

// refPSC and refNestedTLB are the stamp-scan implementations the
// recency-list PSC and nested TLB replaced: every entry carries a valid
// bit and an LRU stamp, and an insert into a full cache scans the stamps
// for the oldest. They are the reference the lockstep tests hold the
// production structures to.
type refPSC struct {
	entries []refPSCEntry
	clock   uint64
}

type refPSCEntry struct {
	vm     addr.VMID
	pid    addr.PID
	prefix uint64
	node   uint64
	valid  bool
	lru    uint64
}

func newRefPSC(capacity int) *refPSC { return &refPSC{entries: make([]refPSCEntry, capacity)} }

func (p *refPSC) Lookup(vm addr.VMID, pid addr.PID, prefix uint64) (uint64, bool) {
	for i := range p.entries {
		e := &p.entries[i]
		if e.valid && e.vm == vm && e.pid == pid && e.prefix == prefix {
			p.clock++
			e.lru = p.clock
			return e.node, true
		}
	}
	return 0, false
}

func (p *refPSC) Insert(vm addr.VMID, pid addr.PID, prefix, node uint64) {
	p.clock++
	vi := 0
	for i := range p.entries {
		e := &p.entries[i]
		if e.valid && e.vm == vm && e.pid == pid && e.prefix == prefix {
			e.node = node
			e.lru = p.clock
			return
		}
		if !e.valid {
			vi = i
			break
		}
		if e.lru < p.entries[vi].lru {
			vi = i
		}
	}
	p.entries[vi] = refPSCEntry{vm: vm, pid: pid, prefix: prefix, node: node, valid: true, lru: p.clock}
}

func (p *refPSC) InvalidateAll() {
	for i := range p.entries {
		p.entries[i] = refPSCEntry{}
	}
}

// contents lists the valid entries most recently used first, in the
// production structure's packed-key form.
func (p *refPSC) contents() []lruEntry {
	var out []lruEntry
	var stamps []uint64
	for _, e := range p.entries {
		if e.valid {
			key, tag := pscKey(e.vm, e.pid, e.prefix)
			out = append(out, lruEntry{key, tag, e.node})
			stamps = append(stamps, e.lru)
		}
	}
	return byRecency(out, stamps)
}

type refNestedTLB struct {
	entries []refNestedEntry
	clock   uint64
}

type refNestedEntry struct {
	vm    addr.VMID
	gpfn  uint64
	hbase uint64
	valid bool
	lru   uint64
}

func newRefNestedTLB(capacity int) *refNestedTLB {
	return &refNestedTLB{entries: make([]refNestedEntry, capacity)}
}

func (n *refNestedTLB) Lookup(vm addr.VMID, gpfn uint64) (uint64, bool) {
	for i := range n.entries {
		e := &n.entries[i]
		if e.valid && e.vm == vm && e.gpfn == gpfn {
			n.clock++
			e.lru = n.clock
			return e.hbase, true
		}
	}
	return 0, false
}

func (n *refNestedTLB) Insert(vm addr.VMID, gpfn, hbase uint64) {
	n.clock++
	vi := 0
	for i := range n.entries {
		e := &n.entries[i]
		if e.valid && e.vm == vm && e.gpfn == gpfn {
			e.hbase = hbase
			e.lru = n.clock
			return
		}
		if !e.valid {
			vi = i
			break
		}
		if e.lru < n.entries[vi].lru {
			vi = i
		}
	}
	n.entries[vi] = refNestedEntry{vm: vm, gpfn: gpfn, hbase: hbase, valid: true, lru: n.clock}
}

func (n *refNestedTLB) InvalidateAll() {
	for i := range n.entries {
		n.entries[i] = refNestedEntry{}
	}
}

func (n *refNestedTLB) contents() []lruEntry {
	var out []lruEntry
	var stamps []uint64
	for _, e := range n.entries {
		if e.valid {
			key, tag := nestedKey(e.vm, e.gpfn)
			out = append(out, lruEntry{key, tag, e.hbase})
			stamps = append(stamps, e.lru)
		}
	}
	return byRecency(out, stamps)
}

// lruEntry is one stored identity and its value.
type lruEntry struct {
	key uint64
	tag uint32
	val uint64
}

// byRecency orders entries by descending LRU stamp.
func byRecency(es []lruEntry, stamps []uint64) []lruEntry {
	idx := make([]int, len(es))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return stamps[idx[a]] > stamps[idx[b]] })
	out := make([]lruEntry, len(es))
	for i, j := range idx {
		out[i] = es[j]
	}
	return out
}

// contents lists the production store's entries in recency-list order.
func (l *lruList) contents() []lruEntry {
	var out []lruEntry
	for i := l.head; i >= 0; i = l.next[i] {
		out = append(out, lruEntry{l.keys[i], l.tags[i], l.vals[i]})
	}
	return out
}

func sameContents(a, b []lruEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// pscIdent is one PSC identity drawn by the lockstep streams.
type pscIdent struct {
	vm     addr.VMID
	pid    addr.PID
	prefix uint64
}

// pscPool builds a pool of identities with repeats across contexts,
// including pairs whose packed keys collide (prefixes that differ in
// exactly the bits the contexts differ in above bit 32), so only the tag
// tells them apart.
func pscPool(r *rand.Rand, n int) []pscIdent {
	var pool []pscIdent
	for len(pool) < n {
		prefix := uint64(r.Intn(3 * n))
		vm, pid := addr.VMID(1+r.Intn(2)), addr.PID(1+r.Intn(2))
		pool = append(pool, pscIdent{vm, pid, prefix})
		if r.Intn(4) == 0 {
			// (vm, pid^3) packs to the same key with prefix ^ 3<<32.
			pool = append(pool, pscIdent{vm, pid ^ 3, prefix ^ 3<<32})
		}
	}
	return pool
}

// TestPSCLockstepWithStampScan drives the recency-list PSC and the
// stamp-scan reference with the same random op streams — repeated keys,
// refreshes with new values and InvalidateAll mid-stream — and asserts
// identical hits and values on every lookup and identical contents, in
// recency order, after every op: the same entries survive, so every
// eviction picked the same victim.
func TestPSCLockstepWithStampScan(t *testing.T) {
	for _, capacity := range []int{1, 2, 4, 32} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("cap%d/seed%d", capacity, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				pool := pscPool(r, 2*capacity+3)
				got, want := NewPSC("lockstep", capacity), newRefPSC(capacity)
				for op := 0; op < 20000; op++ {
					id := pool[r.Intn(len(pool))]
					switch x := r.Intn(100); {
					case x < 2:
						got.InvalidateAll()
						want.InvalidateAll()
					case x < 50:
						gn, gok := got.Lookup(id.vm, id.pid, id.prefix)
						wn, wok := want.Lookup(id.vm, id.pid, id.prefix)
						if gn != wn || gok != wok {
							t.Fatalf("op %d: Lookup(%+v) = %#x,%v, reference %#x,%v", op, id, gn, gok, wn, wok)
						}
					default:
						node := uint64(r.Intn(8)) << 12
						got.Insert(id.vm, id.pid, id.prefix, node)
						want.Insert(id.vm, id.pid, id.prefix, node)
					}
					if g, w := got.lru.contents(), want.contents(); !sameContents(g, w) {
						t.Fatalf("op %d: contents %v, reference %v", op, g, w)
					}
					if err := got.CheckInvariants(); err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
				}
			})
		}
	}
}

// TestNestedTLBLockstepWithStampScan is the nested-TLB counterpart of
// TestPSCLockstepWithStampScan.
func TestNestedTLBLockstepWithStampScan(t *testing.T) {
	for _, capacity := range []int{1, 2, 4, 32} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("cap%d/seed%d", capacity, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				type ident struct {
					vm   addr.VMID
					gpfn uint64
				}
				var pool []ident
				for len(pool) < 2*capacity+3 {
					id := ident{addr.VMID(1 + r.Intn(3)), uint64(r.Intn(6 * capacity))}
					pool = append(pool, id)
					if r.Intn(4) == 0 {
						// (vm^3, gpfn ^ 3<<48) packs to the same key.
						pool = append(pool, ident{id.vm ^ 3, id.gpfn ^ 3<<48})
					}
				}
				got, want := NewNestedTLB(capacity), newRefNestedTLB(capacity)
				for op := 0; op < 20000; op++ {
					id := pool[r.Intn(len(pool))]
					switch x := r.Intn(100); {
					case x < 2:
						got.InvalidateAll()
						want.InvalidateAll()
					case x < 50:
						gh, gok := got.Lookup(id.vm, id.gpfn)
						wh, wok := want.Lookup(id.vm, id.gpfn)
						if gh != wh || gok != wok {
							t.Fatalf("op %d: Lookup(%+v) = %#x,%v, reference %#x,%v", op, id, gh, gok, wh, wok)
						}
					default:
						hbase := uint64(r.Intn(8)) << 12
						got.Insert(id.vm, id.gpfn, hbase)
						want.Insert(id.vm, id.gpfn, hbase)
					}
					if g, w := got.lru.contents(), want.contents(); !sameContents(g, w) {
						t.Fatalf("op %d: contents %v, reference %v", op, g, w)
					}
					if err := got.CheckInvariants(); err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
				}
			})
		}
	}
}

// TestPackedKeyCollisionsStayDistinct pins the tag check: identities
// whose packed keys are equal must not hit each other's entries.
func TestPackedKeyCollisionsStayDistinct(t *testing.T) {
	p := NewPSC("collide", 4)
	p.Insert(1, 1, 0x10, 0xA000)
	k1, _ := pscKey(1, 1, 0x10)
	k2, _ := pscKey(1, 2, 0x10^3<<32)
	if k1 != k2 {
		t.Fatal("test identities do not collide on the packed key")
	}
	if _, ok := p.Lookup(1, 2, 0x10^3<<32); ok {
		t.Error("PSC: colliding identity hit another context's entry")
	}
	n := NewNestedTLB(4)
	n.Insert(1, 5, 0x5000)
	if _, ok := n.Lookup(2, 5^3<<48); ok {
		t.Error("nested TLB: colliding identity hit another VM's entry")
	}
}

// TestLRUListInvariantsCatchCorruption checks that CheckInvariants sees a
// broken recency list and a duplicated key.
func TestLRUListInvariantsCatchCorruption(t *testing.T) {
	fill := func() *NestedTLB {
		n := NewNestedTLB(4)
		for g := uint64(0); g < 4; g++ {
			n.Insert(1, g, g<<12)
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("clean nested TLB: %v", err)
		}
		return n
	}
	n := fill()
	n.lru.next[n.lru.head] = n.lru.head // cycle
	if n.CheckInvariants() == nil {
		t.Error("cycle in the recency list not caught")
	}
	n = fill()
	n.lru.keys[0] = n.lru.keys[1]
	if n.CheckInvariants() == nil {
		t.Error("duplicated key not caught")
	}
	n = fill()
	n.lru.tail = n.lru.head
	if n.CheckInvariants() == nil {
		t.Error("stale tail not caught")
	}
}
