package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/pagetable"
	"repro/internal/pomtlb"
	"repro/internal/tlb"
	"repro/internal/trace"
	"repro/internal/virt"
)

// replayRecords is how many records of the workload's own stream each
// isolated layer replay drives through a package's public API.
const replayRecords = 200_000

// newSystemModes are the schemes whose construction time the traced run
// reports as core.newsystem_ms.<scheme>: every scheme registered when the
// benchmark was defined.
var newSystemModes = []string{"baseline", "pom-tlb", "pom-tlb-nocache", "shared-l2", "tsb",
	"l4-cache", "victima", "dram-cache"}

// readMem returns the runtime's allocation counters.
func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// liveHeapMB returns the live heap in MB after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	return float64(readMem().HeapAlloc) / 1e6
}

// timeIt runs fn and returns its wall time, recording a span when
// tracing.
func timeIt(tr *tracer, op, parent int, name string, count int64, fn func() error) (time.Duration, error) {
	a := time.Now()
	err := fn()
	b := time.Now()
	tr.interval(op, parent, name, a, b, count)
	return b.Sub(a), err
}

// perOp returns nanoseconds per operation.
func perOp(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// pageKey identifies one mapped page of a stream.
type pageKey struct {
	base addr.VA
	size addr.PageSize
}

// distinctPages returns the stream's pages in first-touch order.
func distinctPages(recs []trace.Record) []pageKey {
	seen := map[pageKey]bool{}
	var out []pageKey
	for _, r := range recs {
		k := pageKey{r.VA.PageBase(r.Size), r.Size}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// replayLayers drives the workload's record stream through each layer's
// public API on its own — the layer's host cost with the rest of the
// simulator taken away — and stores the per-call costs:
// trace.decode_ns_per_rec, virt.ns_per_touch, pagetable.ns_per_walk,
// tlb.ns_per_op, cache.ns_per_access, pomtlb.ns_per_search and
// dram.ns_per_access. recs must be demand-mappable in one address space.
func replayLayers(o runOpts, out *outcome, recs []trace.Record) error {
	tr := o.tr
	root := tr.interval(0, 0, "layer-replays", time.Now(), time.Now(), int64(len(recs)))
	defer func() { tr.end(root, time.Now()) }()

	// trace: encode once, then time the decoder.
	wire, err := encodeRecords(recs)
	if err != nil {
		return err
	}
	decoded := make([]trace.Record, 0, len(recs))
	d, err := timeIt(tr, 0, root, "trace.Reader.Read", int64(len(recs)), func() error {
		var err error
		decoded, err = decodeRecords(decoded, wire)
		return err
	})
	if err != nil {
		return err
	}
	out.check("trace decode round trip", errIf(!slices.Equal(decoded, recs),
		"%d records decoded differ from the %d encoded", len(decoded), len(recs)))
	out.set("trace.decode_ns_per_rec", perOp(d, len(recs)))

	// virt: first touch of every distinct page in a fresh VM.
	pages := distinctPages(recs)
	hyp := virt.NewHypervisor(virt.DefaultConfig())
	vm, err := hyp.NewVM(1)
	if err != nil {
		return err
	}
	d, err = timeIt(tr, 0, root, "virt.VM.Touch", int64(len(pages)), func() error {
		for _, p := range pages {
			if _, err := vm.Touch(1, p.base, p.size); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out.set("virt.ns_per_touch", perOp(d, len(pages)))

	// pagetable: a 2D walk per record over the now-mapped VM, with memory
	// references costing a constant so only the walker's own work counts.
	walker := pagetable.NewWalker(pagetable.DefaultWalkerConfig(), func(addr.HPA, bool) uint64 { return 1 })
	faults := 0
	d, _ = timeIt(tr, 0, root, "pagetable.Walker.Translate2D", int64(len(recs)), func() error {
		for _, r := range recs {
			if !walker.Translate2D(vm.GuestTable(1), vm.EPT(), 1, 1, r.VA).OK {
				faults++
			}
		}
		return nil
	})
	out.check("isolated walks resolve", errIf(faults > 0, "%d of %d walks faulted", faults, len(recs)))
	out.set("pagetable.ns_per_walk", perOp(d, len(recs)))

	// tlb: the L2 TLB, looked up per record and filled on a miss.
	l2 := tlb.MustNew(tlb.L2Unified())
	d, _ = timeIt(tr, 0, root, "tlb.TLB.Lookup+Insert", int64(len(recs)), func() error {
		for _, r := range recs {
			if _, ok := l2.Lookup(1, 1, r.VA); !ok {
				l2.Insert(tlb.Entry{VM: 1, PID: 1, VPN: r.VA.VPN(r.Size), PFN: r.VA.VPN(r.Size), Size: r.Size, Valid: true})
			}
		}
		return nil
	})
	out.set("tlb.ns_per_op", perOp(d, len(recs)))

	// cache: the L2 data cache, accessed per record line and filled on a
	// miss.
	l2d := cache.MustNew(cache.L2())
	d, _ = timeIt(tr, 0, root, "cache.Cache.Access+Fill", int64(len(recs)), func() error {
		for _, r := range recs {
			line := uint64(r.VA) >> addr.CacheLineShift
			if !l2d.Access(line, r.Write, cache.Data) {
				l2d.Fill(line, r.Write, cache.Data)
			}
		}
		return nil
	})
	out.set("cache.ns_per_access", perOp(d, len(recs)))

	// pomtlb: every page inserted into its partition, then one search per
	// record.
	pom := pomtlb.New(pomtlb.DefaultConfig())
	for _, p := range pages {
		vpn := p.base.VPN(p.size)
		pom.Partition(p.size).Insert(pomtlb.Entry{Valid: true, VM: 1, PID: 1, VPN: vpn, PFN: vpn, Size: p.size})
	}
	d, _ = timeIt(tr, 0, root, "pomtlb.Partition.Search", int64(len(recs)), func() error {
		for _, r := range recs {
			pom.Partition(r.Size).Search(1, 1, r.VA)
		}
		return nil
	})
	out.set("pomtlb.ns_per_search", perOp(d, len(recs)))

	// dram: the record lines alternately through an off-chip DDR4 channel
	// and a die-stacked channel, issued 20 cycles apart.
	ddr, stacked := dram.MustNew(dram.DDR4_2133()), dram.MustNew(dram.DieStacked())
	d, _ = timeIt(tr, 0, root, "dram.Channel.Access", int64(len(recs)), func() error {
		for i, r := range recs {
			ch := ddr
			if i&1 == 1 {
				ch = stacked
			}
			ch.Access(uint64(i)*20, addr.HPA(uint64(r.VA)).LineBase(), r.Write)
		}
		return nil
	})
	out.set("dram.ns_per_access", perOp(d, len(recs)))
	return nil
}

// errIf returns a formatted error when cond holds.
func errIf(cond bool, format string, args ...any) error {
	if cond {
		return fmt.Errorf(format, args...)
	}
	return nil
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// resultLayers stores the counts and simulated-clock metrics of one
// core.Result, and the per-record host-cost estimates that multiply each
// layer's replay cost (already set by replayLayers) by its call count
// per record.
func resultLayers(out *outcome, r core.Result) {
	recs := float64(r.Records)
	perRec := func(n uint64) float64 { return ratio(float64(n), recs) }

	out.set("tlb.l1_hit", r.L1TLB.Ratio())
	out.set("tlb.l2_hit", r.L2TLB.Ratio())
	out.set("tlb.l2_lookups_per_rec", perRec(r.L2TLB.Total()))
	tlbOps := perRec(r.L1TLB.Total() + r.L2TLB.Total())

	var l2Acc uint64
	for _, hm := range r.L2Cache.Access {
		l2Acc += hm.Total()
	}
	var l3Acc uint64
	var l3 = r.L3Cache.Access[cache.Data]
	for _, hm := range r.L3Cache.Access {
		l3Acc += hm.Total()
	}
	var l2 = r.L2Cache.Access[cache.Data]
	out.set("cache.l2_hit", l2.Ratio())
	out.set("cache.l3_hit", l3.Ratio())
	out.set("cache.l2_accesses_per_rec", perRec(l2Acc))
	// Every record's data access and every walk reference start at the
	// L1D; misses continue to the L2 and L3.
	cacheOps := perRec(r.Records + r.Walk.TotalRefs + l2Acc + l3Acc)

	out.set("pomtlb.l2d_hit", r.L2DProbe.Ratio())
	out.set("pomtlb.l3d_hit", r.L3DProbe.Ratio())
	out.set("pomtlb.dram_hit", r.POMDRAM.Ratio())
	out.set("pomtlb.size_pred_acc", r.SizePred.Ratio())
	out.set("pomtlb.bypass_pred_acc", r.BypassPred.Ratio())
	searches := perRec(r.L2DProbe.Hits + r.L3DProbe.Hits + r.POMDRAM.Total())
	out.set("pomtlb.searches_per_rec", searches)

	walks := r.Walk.Walks2D + r.Walk.WalksNative
	out.set("pagetable.walks_per_rec", perRec(walks))
	out.set("pagetable.refs_per_walk", r.Walk.AvgRefs())
	out.set("pagetable.cycles_per_walk", r.Walk.AvgLatency())
	out.set("pagetable.psc_skips_per_walk", ratio(float64(r.Walk.PSCSkips), float64(walks)))

	ddr, pom := r.DDRStats, r.POMDRAMStats
	out.set("dram.ddr_row_hit", ddr.RowBufferHitRate())
	out.set("dram.ddr_wait_per_access", ratio(float64(ddr.TotalWait), float64(ddr.Accesses)))
	out.set("dram.pom_row_hit", pom.RowBufferHitRate())
	out.set("dram.pom_wait_per_access", ratio(float64(pom.TotalWait), float64(pom.Accesses)))
	dramOps := perRec(ddr.Accesses + pom.Accesses)
	out.set("dram.accesses_per_rec", dramOps)

	out.set("tlb.est_ns_per_rec", out.metrics["tlb.ns_per_op"]*tlbOps)
	out.set("cache.est_ns_per_rec", out.metrics["cache.ns_per_access"]*cacheOps)
	out.set("pomtlb.est_ns_per_rec", out.metrics["pomtlb.ns_per_search"]*searches)
	out.set("pagetable.est_ns_per_rec", out.metrics["pagetable.ns_per_walk"]*perRec(walks))
	out.set("dram.est_ns_per_rec", out.metrics["dram.ns_per_access"]*dramOps)

	out.set("sim.p_avg_cycles", r.AvgPenalty())
	out.set("sim.walk_elim", r.WalkEliminationRate())
	out.set("sim.ipc", r.IPC())
	out.set("sim.data_lat_cycles", r.DataLat.Value())
	for i, name := range resolveNames {
		out.set("sim.resolved."+name, float64(r.Resolved[i]))
	}

	cold := core.NumTiers - 1
	out.set("consolidation.cold_walk_elim", r.TierWalkElim(cold))
	out.set("consolidation.cold_p_avg_cycles", r.TierAvgPenalty(cold))
}

// simDigest renders the simulated-clock counts that must repeat exactly
// for a given seed.
func simDigest(r core.Result) string {
	return fmt.Sprintf("records=%d cycles=%d insts=%d penalty=%d resolved=%v walks=%d refs=%d datalat=%.6f",
		r.Records, r.Cycles, r.Insts, r.PenaltyCycles, r.Resolved,
		r.Walk.Walks2D+r.Walk.WalksNative, r.Walk.TotalRefs, r.DataLat.Value())
}

// newSystemCosts times core.NewSystem for every scheme on the Table 1
// machine (three constructions each, median reported).
func newSystemCosts(o runOpts, out *outcome) error {
	for _, m := range newSystemModes {
		var ms []float64
		for rep := 0; rep < 3; rep++ {
			cfg := core.DefaultConfig()
			cfg.Mode = core.Mode(m)
			d, err := timeIt(o.tr, 0, 0, "core.NewSystem:"+m, 0, func() error {
				_, err := core.NewSystem(cfg)
				return err
			})
			if err != nil {
				return fmt.Errorf("NewSystem(%s): %w", m, err)
			}
			ms = append(ms, float64(d.Nanoseconds())/1e6)
		}
		out.set("core.newsystem_ms."+m, median(ms))
	}
	return nil
}

// vmFinder names the VM of sys that maps a page (0 = none).
type vmFinder func(sys *core.System, p pageKey) addr.VMID

// vmOne is the vmFinder of a single-VM workload.
func vmOne(*core.System, pageKey) addr.VMID { return 1 }

// invalidationCosts times System.Shootdown on up to 64 of the stream's
// mapped pages and one System.ProcessExit of the tenant, on a warmed
// system; pages no VM maps are skipped. Returns the median shootdown and
// the process-exit time in microseconds.
func invalidationCosts(o runOpts, sys *core.System, pages []pageKey, vmFor vmFinder, exitVM addr.VMID) (shootUs, exitUs float64) {
	var us []float64
	for _, p := range pages {
		if len(us) == 64 {
			break
		}
		vm := vmFor(sys, p)
		if vm == 0 {
			continue
		}
		d, _ := timeIt(o.tr, 0, 0, "core.System.Shootdown", 1, func() error {
			sys.Shootdown(vm, 1, p.base, p.size)
			return nil
		})
		us = append(us, float64(d.Nanoseconds())/1e3)
	}
	d, _ := timeIt(o.tr, 0, 0, "core.System.ProcessExit", 1, func() error {
		sys.ProcessExit(exitVM, 1)
		return nil
	})
	return median(us), float64(d.Nanoseconds()) / 1e3
}

// encodeRecords returns recs as one POMTRC01 stream.
func encodeRecords(recs []trace.Record) ([]byte, error) {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeRecords appends the records of one POMTRC01 stream to dst.
func decodeRecords(dst []trace.Record, wire []byte) ([]trace.Record, error) {
	rd, err := trace.NewReader(bytes.NewReader(wire))
	if err != nil {
		return dst, err
	}
	for {
		r, err := rd.Read()
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
		dst = append(dst, r)
	}
}

// opSample is one System.Advance call. A traced op also carries the
// generator's share of its time and its heap allocations.
type opSample struct {
	dur           time.Duration
	genNs         int64
	allocs, bytes uint64
}

// advanceOp advances sys by n records as operation op. A traced op times
// the generator per call, reads the allocation counters and records a
// window span with one aggregated trace.Generator.Next child; an
// untraced op passes the generator straight through, so both consume
// identical records.
func advanceOp(ctx context.Context, o runOpts, sys *core.System, tg *timedGen, op, n int, traced bool) (opSample, error) {
	tg.on = traced
	tg.take()
	m0 := readMemIf(traced)
	a := time.Now()
	err := sys.Advance(ctx, tg, n)
	b := time.Now()
	s := opSample{dur: b.Sub(a)}
	if err != nil || !traced {
		return s, err
	}
	m1 := readMem()
	gn, calls := tg.take()
	win := o.tr.interval(op, 0, "core.System.Advance", a, b, int64(n))
	o.tr.add(span{Parent: win, Op: op, Name: "trace.Generator.Next", Start: o.tr.rel(a), End: o.tr.rel(a) + gn, Calls: calls})
	s.genNs, s.allocs, s.bytes = gn, m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return s, nil
}

// readMemIf reads the allocation counters only for a traced op.
func readMemIf(traced bool) (m runtime.MemStats) {
	if traced {
		m = readMem()
	}
	return m
}

// windowCosts collects the per-record costs of traced ops.
type windowCosts struct{ self, gen, allocs, bytes []float64 }

func (w *windowCosts) add(s opSample, n int) {
	per := func(x float64) float64 { return x / float64(n) }
	w.self = append(w.self, per(float64(s.dur.Nanoseconds()-s.genNs)))
	w.gen = append(w.gen, per(float64(s.genNs)))
	w.allocs = append(w.allocs, per(float64(s.allocs)))
	w.bytes = append(w.bytes, per(float64(s.bytes)))
}

// set stores the medians: the simulator's self time (op minus
// generator), the generator time and the allocations, per record.
func (w *windowCosts) set(out *outcome) {
	out.set("core.self_ns_per_rec", median(w.self))
	out.set("trace.gen_ns_per_rec", median(w.gen))
	out.set("core.allocs_per_rec", median(w.allocs))
	out.set("core.bytes_per_rec", median(w.bytes))
}

// hostLayers stores the host costs every traced run measures on its
// warmed system sys: shootdown and process exit of the stream's pages,
// the isolated layer replays of recs, and NewSystem per scheme.
func hostLayers(o runOpts, out *outcome, sys *core.System, recs []trace.Record, vmFor vmFinder) error {
	sh, ex := invalidationCosts(o, sys, distinctPages(recs), vmFor, 1)
	out.set("core.shootdown_us", sh)
	out.set("core.process_exit_us", ex)
	if err := replayLayers(o, out, recs); err != nil {
		return err
	}
	return newSystemCosts(o, out)
}

// standaloneLayers measures the simulator under a workload whose systems
// cannot be timed from inside (sweep cells, server sessions): it builds
// a system from cfg with the scenario's events, warms it with warmup
// records of g, times windows of window records one by one, checks it,
// and then measures hostLayers on it.
func standaloneLayers(ctx context.Context, o runOpts, out *outcome, cfg core.Config, events []core.Event,
	g trace.Generator, warmup, windows, window int, recs []trace.Record, vmFor vmFinder) error {
	var sys *core.System
	d, err := timeIt(o.tr, 0, 0, "core.NewSystem", 0, func() error {
		var err error
		sys, err = core.NewSystem(cfg)
		return err
	})
	if err != nil {
		return err
	}
	out.set("core.newsystem_ms", float64(d.Nanoseconds())/1e6)
	sys.SetEvents(events)
	tg := &timedGen{g: g}
	d, err = timeIt(o.tr, 0, 0, "core.System.Advance(warm-up)", int64(warmup), func() error {
		return sys.Advance(ctx, tg, warmup)
	})
	if err != nil {
		return err
	}
	out.set("core.warmup_ns_per_rec", perOp(d, warmup))
	var wc windowCosts
	for i := 0; i < windows; i++ {
		s, err := advanceOp(ctx, o, sys, tg, i+1, window, true)
		if err != nil {
			return err
		}
		wc.add(s, window)
	}
	wc.set(out)
	out.check("standalone system accounting", sys.Snapshot().CheckAccounting())
	out.check("standalone system invariants", sys.CheckInvariants())
	return hostLayers(o, out, sys, recs, vmFor)
}
