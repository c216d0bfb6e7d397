package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workloads"
)

const (
	// gupsWarmup demand-maps the whole 96 MB gups footprint (about 24k
	// pages; uniform draws cover them all well within this many records)
	// and fills the TLBs, caches and POM-TLB sets, so the measured
	// windows run the steady-state, allocation-free record loop.
	gupsWarmup = 400_000
	// opRecords is one System.Advance call: the gups workloads' op.
	opRecords = 16_384
	// simOps is the fixed number of ops after warm-up whose core.Result
	// gives the simulated-clock metrics: a fixed record count, so the
	// counts repeat exactly for a seed however fast the host runs.
	simOps = 16
	// setupReps is how many times a gups or ingest-stream run sets up;
	// setup_s is the median.
	setupReps = 7
)

// runGups runs pom-gups (mode pom-tlb) or walk-gups (mode baseline): the
// gups profile on the Table 1 machine, warmed to steady state, then
// advanced op by op for the measured phase.
func runGups(ctx context.Context, o runOpts, mode core.Mode) (*outcome, error) {
	out := newOutcome()
	p, ok := workloads.ByName("gups")
	if !ok {
		return nil, fmt.Errorf("gups profile missing")
	}
	cfg := core.DefaultConfig()
	cfg.Mode = mode
	cfg.Seed = o.seed

	var (
		setups, newSys, warmNs []float64
		digest                 string
	)

	// setUp builds and warms one system. The first is the one measured;
	// the others run at even marks of the measured phase, so setup_s
	// samples the host across the run, and are discarded.
	setUp := func(rep int) (*core.System, *timedGen, error) {
		t0 := time.Now()
		s, err := core.NewSystem(cfg)
		if err != nil {
			return nil, nil, err
		}
		t1 := time.Now()
		// Every run hands Advance the same wrapper, timing only in traced
		// ops, so traced and untraced runs consume identical records.
		g := &timedGen{g: p.Generator(cfg.Cores, o.seed)}
		err = s.Advance(ctx, g, gupsWarmup)
		t2 := time.Now()
		if err != nil {
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, t2.Sub(t0).Seconds())
		newSys = append(newSys, float64(t1.Sub(t0).Nanoseconds())/1e6)
		warmNs = append(warmNs, float64(t2.Sub(t1).Nanoseconds())/gupsWarmup)
		root := o.tr.interval(0, 0, "setup", t0, t2, 0)
		o.tr.interval(0, root, "core.NewSystem", t0, t1, 0)
		o.tr.interval(0, root, "core.System.Advance(warm-up)", t1, t2, gupsWarmup)

		snap := s.Snapshot()
		out.check("accounting after warm-up", snap.CheckAccounting())
		out.check("invariants after warm-up", s.CheckInvariants())
		d := simDigest(snap)
		if rep == 0 {
			digest = d
		}
		out.check("warm-up repeats exactly", errIf(d != digest, "set-up %d: %s, set-up 0: %s", rep, d, digest))
		return s, g, nil
	}
	sys, tg, err := setUp(0)
	if err != nil {
		return nil, err
	}

	// Measured phase. A traced run alternates untraced and traced ops on
	// one scheduler, so both rates come from the same minutes of the host.
	sys.ResetStats()
	var lat, rates, tracedRates, plainRates []float64
	var wc windowCosts
	var simRes core.Result
	var busy time.Duration // time inside the ops, without the later set-ups
	deadline := o.deadline()
	start := time.Now()
	mark := deadline.Sub(start) / setupReps
	for i := 0; i < simOps || time.Now().Before(deadline); i++ {
		if len(setups) < setupReps && time.Since(start) >= time.Duration(len(setups))*mark {
			if _, _, err := setUp(len(setups)); err != nil {
				return nil, err
			}
			runtime.GC() // collect the discarded system before timing resumes
		}
		traced := o.trace && i%2 == 1
		op, err := advanceOp(ctx, o, sys, tg, i+1, opRecords, traced)
		out.op("advance", err)
		if err != nil {
			break
		}
		busy += op.dur
		lat = append(lat, float64(op.dur.Nanoseconds())/1e6)
		rate := opRecords / op.dur.Seconds()
		rates = append(rates, rate)
		if traced {
			wc.add(op, opRecords)
			tracedRates = append(tracedRates, rate)
		} else if o.trace {
			plainRates = append(plainRates, rate)
		}
		if i == simOps-1 {
			simRes = sys.Snapshot()
		}
	}
	for len(setups) < setupReps { // a run too short to reach the later marks
		if _, _, err := setUp(len(setups)); err != nil {
			return nil, err
		}
	}

	final := sys.Snapshot()
	out.check("accounting after measured phase", final.CheckAccounting())
	out.check("invariants after measured phase", sys.CheckInvariants())
	out.check("records counted", errIf(final.Records != uint64(len(lat))*opRecords,
		"result has %d records, %d were advanced", final.Records, len(lat)*opRecords))
	heap := liveHeapMB()
	gupsNotes(out, mode, simRes)

	if !o.trace {
		setOpMetrics(out, lat, rates, busy, float64(len(lat)*opRecords), setups, heap)
		return out, nil
	}
	wc.set(out)
	out.set("core.newsystem_ms", median(newSys))
	out.set("core.warmup_ns_per_rec", median(warmNs))
	out.set("bench.trace_overhead", median(tracedRates)-median(plainRates))
	// The layer replays drive the trace's first records.
	recs := trace.Collect(p.Generator(cfg.Cores, o.seed), replayRecords)
	if err := hostLayers(o, out, sys, recs, vmOne); err != nil {
		return nil, err
	}
	resultLayers(out, simRes)
	idleLayers(out, "sweep.", "server.")
	return out, nil
}

// idleLayers sets to 0 the per-layer metrics of layers a workload does
// not run, so every traced run reports the full metric set.
func idleLayers(out *outcome, prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.Name, p) {
				out.set(d.Name, 0)
			}
		}
	}
}

// setOpMetrics stores the end-to-end metrics of an op-based run. The
// throughput is the first quartile of the per-op record rates: on a
// shared host the ops fall into slow and fast stretches lasting seconds,
// and the median or the overall mean flips with their mix while the
// first quartile stays put. setup_s is the median of the run's set-ups.
// The set-up times, the overall rate and the op latency median and tail
// (the highest percentile with ten ops beyond it) are printed.
func setOpMetrics(out *outcome, latMs, rates []float64, elapsed time.Duration, records float64, setups []float64, heapMB float64) {
	out.set("rec_per_s", quantile(rates, 0.25))
	out.set("setup_s", median(setups))
	out.set("heap_mb", heapMB)
	out.notef("%d set-ups: %.4g s", len(setups), setups)
	out.notef("overall rate %.6g rec/s over %.1f s; per-op rate median %.6g rec/s", records/elapsed.Seconds(),
		elapsed.Seconds(), median(rates))
	p, ok := tailPercentile(len(latMs), 10)
	if !ok {
		out.notef("op latency: p50 %.4g ms of %d ops; too few ops for a tail with 10 beyond it", median(latMs), len(latMs))
		return
	}
	out.notef("op latency: p50 %.4g ms, p%g %.4g ms, of %d ops", median(latMs), p, quantile(latMs, p/100), len(latMs))
}

// gupsNotes prints the simulated-clock report and, for the baseline,
// the comparison against Table 2's measured cost per L2 TLB miss.
func gupsNotes(out *outcome, mode core.Mode, r core.Result) {
	out.notef("sim digest (%d records after warm-up): %s", simOps*opRecords, simDigest(r))
	out.notef("walks per L2 TLB miss: %.4f, walk elimination %.4f", 1-r.WalkEliminationRate(), r.WalkEliminationRate())
	if mode != core.Baseline {
		out.notef("sim.p_avg_cycles = %.2f: no measured reference in the repository for this scheme; unvalidated", r.AvgPenalty())
		return
	}
	p, _ := workloads.ByName("gups")
	sim, ref := r.AvgPenalty(), p.CyclesPerMissVirt
	out.notef("sim.p_avg_cycles = %.2f simulated vs Table 2 measured %.0f cycles per L2 TLB miss (gups, virtualized): error %+.1f%%",
		sim, ref, 100*(sim-ref)/ref)
}
