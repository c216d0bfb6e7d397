package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/addr"
	"repro/internal/consolidation"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/experiments/sweep"
	"repro/internal/trace"
	"repro/internal/workloads"
)

const (
	// sweepWarmup and sweepRefs size each cell: short cells, so a pass
	// over the grid is dominated by per-cell set-up, scenario events and
	// journaling rather than by the steady record loop.
	sweepWarmup = 16_000
	sweepRefs   = 32_000
	// sweepShards is the sweep's worker count: one per host CPU.
	sweepShards = 2
	// minPasses guarantees both grid seeds run at least twice, in a traced
	// run once traced and once untraced.
	minPasses = 4
)

// sweepWorkloads are the consolidation presets the grid crosses with
// every registered scheme.
var sweepWorkloads = []string{"consol-churn", "consol-zipf"}

// sweepBase is the campaign the sweep cells share: the Table 1 machine
// with short consolidation cells.
func sweepBase(seed uint64) experiments.Options {
	return experiments.Options{
		Cores:       8,
		VMs:         1,
		WarmupRefs:  sweepWarmup,
		MaxRefs:     sweepRefs,
		Seed:        seed,
		Virtualized: true,
		Workloads:   sweepWorkloads,
	}
}

// sweepSeeds derives the grid's two trace seeds from the benchmark seed;
// passes alternate between them.
func sweepSeeds(seed uint64) [2]uint64 { return [2]uint64{2*seed + 1, 2*seed + 2} }

// rowClock is the sweep's CSV sink: it keeps the bytes and notes when
// the first data row (after the header line) arrives.
type rowClock struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	lines int
	first time.Time
}

func (r *rowClock) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lines += bytes.Count(p, []byte{'\n'})
	if r.lines >= 2 && r.first.IsZero() {
		r.first = time.Now()
	}
	return r.buf.Write(p)
}

// sweepPass is one sweep.Run over the grid for one seed.
type sweepPass struct {
	elapsed time.Duration
	setup   time.Duration // until the first CSV row
	records uint64
	csv     []byte
	report  *sweep.Report
}

// runPass runs the grid once with a fresh journal in its own directory.
func runPass(ctx context.Context, o runOpts, out *outcome, seed uint64, idx int) (sweepPass, error) {
	base := sweepBase(o.seed)
	spec := sweep.Spec{Schemes: core.Modes(), Seeds: []uint64{seed}}
	dir, err := os.MkdirTemp(o.tmpDir, "sweep-")
	if err != nil {
		return sweepPass{}, err
	}
	defer os.RemoveAll(dir)
	j, err := experiments.OpenSweepJournal(filepath.Join(dir, "journal"),
		experiments.SweepFingerprint(base, spec.Canonical()))
	if err != nil {
		return sweepPass{}, err
	}
	clock := &rowClock{}
	t0 := time.Now()
	rep, err := sweep.Run(ctx, sweep.Config{
		Base: base, Spec: spec, Shards: sweepShards, Journal: j, CSV: clock, Collect: true,
	})
	t1 := time.Now()
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return sweepPass{}, err
	}
	p := sweepPass{elapsed: t1.Sub(t0), setup: clock.first.Sub(t0), csv: clock.buf.Bytes(), report: rep}
	for _, r := range rep.Results {
		p.records += r.Res.Records
	}
	root := o.tr.interval(idx+1, 0, "sweep.Run", t0, t1, int64(rep.Total))
	o.tr.interval(idx+1, root, "first-csv-row", t0, clock.first, 1)

	grid := len(sweepWorkloads) * len(core.Modes())
	for i := 0; i < rep.Total; i++ {
		out.op("sweep cell", errIf(i >= rep.Completed, "cell not completed"))
	}
	out.check("grid size", errIf(rep.Total != grid, "sweep ran %d cells, grid has %d", rep.Total, grid))
	out.check("nothing quarantined", errIf(len(rep.Quarantined) > 0 || rep.JournalErrs > 0,
		"%d quarantined, %d journal errors", len(rep.Quarantined), rep.JournalErrs))
	out.check("csv rows", errIf(bytes.Count(p.csv, []byte{'\n'}) != grid+1,
		"%d CSV lines for %d cells", bytes.Count(p.csv, []byte{'\n'}), grid))
	out.check("journal complete", errIf(j.DoneLen() != grid, "journal holds %d of %d cells", j.DoneLen(), grid))
	for _, r := range rep.Results {
		out.check("cell accounting "+r.Cell.Key(), r.Res.CheckAccounting())
	}
	if clock.first.IsZero() {
		return p, fmt.Errorf("no CSV row arrived")
	}
	return p, nil
}

// runSweep runs consol-sweep: repeated sweep.Run passes over
// consol-churn × consol-zipf × every registered scheme, alternating two
// seeds, each pass with a fresh fsynced journal.
func runSweep(ctx context.Context, o runOpts) (*outcome, error) {
	out := newOutcome()
	seeds := sweepSeeds(o.seed)
	csvBySeed := map[uint64][]byte{}
	var lat, rates, setups, tracedRates, plainRates []float64
	var records uint64
	var firstZipfPOM *core.Result
	deadline := o.deadline()
	start := time.Now()
	for i := 0; i < minPasses || time.Now().Before(deadline); i++ {
		// Seeds alternate every pass and tracing every second pair, so
		// the traced and the untraced passes each cover both seeds.
		seed := seeds[i%2]
		traced := o.trace && (i/2)%2 == 1
		po := o
		if !traced {
			po.tr = nil
		}
		p, err := runPass(ctx, po, out, seed, i)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
		lat = append(lat, float64(p.elapsed.Nanoseconds())/1e6)
		rate := float64(p.records) / p.elapsed.Seconds()
		records += p.records
		rates = append(rates, rate)
		setups = append(setups, p.setup.Seconds())
		if traced {
			tracedRates = append(tracedRates, rate)
		} else {
			plainRates = append(plainRates, rate)
		}
		if prev, ok := csvBySeed[seed]; ok {
			out.check("pass repeats exactly", errIf(!bytes.Equal(prev, p.csv),
				"seed %d: CSV of pass %d differs from the first pass with that seed", seed, i))
		} else {
			csvBySeed[seed] = p.csv
		}
		if firstZipfPOM == nil {
			for _, r := range p.report.Results {
				if r.Cell.Workload == "consol-zipf" && r.Cell.Mode == core.POMTLB {
					res := r.Res
					firstZipfPOM = &res
				}
			}
		}
	}
	elapsed := time.Since(start)
	heap := liveHeapMB()
	if firstZipfPOM == nil {
		return nil, fmt.Errorf("no consol-zipf pom-tlb cell")
	}
	grid := len(sweepWorkloads) * len(core.Modes())
	cellsPerS := float64(len(lat)*grid) / elapsed.Seconds()
	out.notef("%d passes of %d cells: cells_per_s %.2f", len(lat), grid, cellsPerS)
	out.notef("sim digest (consol-zipf pom-tlb cell, seed %d): %s", seeds[0], simDigest(*firstZipfPOM))
	out.notef("consolidation workloads have no measured reference in the repository; simulated cycles are unvalidated")

	if !o.trace {
		setOpMetrics(out, lat, rates, elapsed, float64(records), setups, heap)
		return out, nil
	}
	out.set("bench.trace_overhead", median(tracedRates)-median(plainRates))
	out.set("sweep.cells_per_s", cellsPerS)
	if err := sweepLayers(ctx, o, out, seeds[0]); err != nil {
		return nil, err
	}
	resultLayers(out, *firstZipfPOM)
	idleLayers(out, "server.")
	return out, nil
}

// sweepLayers measures the layers under the sweep from outside: cells
// one at a time through experiments.SimulateCell, journal appends, a
// standalone warmed consolidation system, and the layer replays of the
// consol-zipf stream.
func sweepLayers(ctx context.Context, o runOpts, out *outcome, seed uint64) error {
	base := sweepBase(o.seed)
	base.Seed = seed
	var cellMs []float64
	var results []core.Result
	var keys []string
	for _, w := range sweepWorkloads {
		for _, m := range core.Modes() {
			var res core.Result
			d, err := timeIt(o.tr, 0, 0, "experiments.SimulateCell:"+w+"/"+m.String(), 1, func() error {
				var err error
				res, err = experiments.SimulateCell(ctx, base, w, m)
				return err
			})
			out.op("isolated cell", err)
			cellMs = append(cellMs, float64(d.Nanoseconds())/1e6)
			results = append(results, res)
			keys = append(keys, w+"|"+m.String())
		}
	}
	out.set("sweep.cell_ms_p50", median(cellMs))
	out.set("sweep.cell_ms_p90", quantile(cellMs, 0.9))

	j, err := experiments.OpenSweepJournal(filepath.Join(o.tmpDir, "put-journal"), "pombench")
	if err != nil {
		return err
	}
	var putMs []float64
	for i, res := range results {
		d, err := timeIt(o.tr, 0, 0, "experiments.SweepJournal.PutDone", 1, func() error { return j.PutDone(keys[i], res) })
		out.op("journal put", err)
		putMs = append(putMs, float64(d.Nanoseconds())/1e6)
	}
	if err := j.Close(); err != nil {
		return err
	}
	out.set("sweep.journal_put_ms", median(putMs))

	// A standalone consol-zipf pom-tlb system, built the way the sweep's
	// cells build theirs. The scenario's own stream gives the
	// invalidation targets and the layer replays (one address space
	// stands in for the tenants').
	preset, ok := workloads.ConsolidationByName("consol-zipf")
	if !ok {
		return fmt.Errorf("consol-zipf preset missing")
	}
	const windows, window = 8, 8192
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	scn, err := consolidation.New(consolidation.Config{Preset: preset, Cores: cfg.Cores, Seed: seed,
		TotalRecords: sweepWarmup + windows*window})
	if err != nil {
		return err
	}
	cfg.VMs = scn.Guests
	replay, err := consolidation.New(consolidation.Config{Preset: preset, Cores: cfg.Cores, Seed: seed, TotalRecords: replayRecords})
	if err != nil {
		return err
	}
	vmFor := func(sys *core.System, p pageKey) addr.VMID {
		hyp := sys.Hypervisor()
		for id := 1; id <= scn.Guests; id++ {
			if vm, ok := hyp.VM(addr.VMID(id)); ok {
				if _, _, ok := vm.Translate(1, p.base); ok {
					return addr.VMID(id)
				}
			}
		}
		return 0
	}
	return standaloneLayers(ctx, o, out, cfg, scn.Events, scn.Gen, sweepWarmup, windows, window,
		trace.Collect(replay.Gen, replayRecords), vmFor)
}
