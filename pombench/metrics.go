package main

import (
	"fmt"
	"sort"
)

// metricDef declares one reported metric.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics an untraced run reports: what a user of the
// simulator sees. Each workload measures op by op, an op being its unit
// of user work: one System.Advance call of opRecords records (pom-gups,
// walk-gups), one sweep.Run over the whole grid (consol-sweep), one
// session's upload (rates) and one POST (latency) on ingest-stream.
var endToEnd = []metricDef{
	{"rec_per_s", "rec/s"},
	{"setup_s", "s"},
	{"heap_mb", "MB"},
}

// resolveNames are the sim.resolved.* suffixes, in core.ResolveLevel
// order.
var resolveNames = []string{"l1tlb", "l2tlb", "l2d", "l3d", "pom", "shared", "tsb", "victima", "walk"}

// perLayer are the metrics a traced run reports. Host-time layer costs
// come from isolated replays of the workload's own stream through each
// package's public API; counts come from core.Result.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"trace.gen_ns_per_rec", "ns"},
		{"trace.decode_ns_per_rec", "ns"},
		{"core.self_ns_per_rec", "ns"},
		{"core.allocs_per_rec", "count"},
		{"core.bytes_per_rec", "B"},
		{"core.warmup_ns_per_rec", "ns"},
		{"core.newsystem_ms", "ms"},
		{"core.shootdown_us", "us"},
		{"core.process_exit_us", "us"},
		{"tlb.l1_hit", "ratio"},
		{"tlb.l2_hit", "ratio"},
		{"tlb.l2_lookups_per_rec", "count"},
		{"tlb.ns_per_op", "ns"},
		{"tlb.est_ns_per_rec", "ns"},
		{"cache.l2_hit", "ratio"},
		{"cache.l3_hit", "ratio"},
		{"cache.l2_accesses_per_rec", "count"},
		{"cache.ns_per_access", "ns"},
		{"cache.est_ns_per_rec", "ns"},
		{"pomtlb.l2d_hit", "ratio"},
		{"pomtlb.l3d_hit", "ratio"},
		{"pomtlb.dram_hit", "ratio"},
		{"pomtlb.size_pred_acc", "ratio"},
		{"pomtlb.bypass_pred_acc", "ratio"},
		{"pomtlb.searches_per_rec", "count"},
		{"pomtlb.ns_per_search", "ns"},
		{"pomtlb.est_ns_per_rec", "ns"},
		{"pagetable.walks_per_rec", "count"},
		{"pagetable.refs_per_walk", "count"},
		{"pagetable.cycles_per_walk", "cycles"},
		{"pagetable.psc_skips_per_walk", "count"},
		{"pagetable.ns_per_walk", "ns"},
		{"pagetable.est_ns_per_rec", "ns"},
		{"dram.ddr_row_hit", "ratio"},
		{"dram.ddr_wait_per_access", "cycles"},
		{"dram.pom_row_hit", "ratio"},
		{"dram.pom_wait_per_access", "cycles"},
		{"dram.accesses_per_rec", "count"},
		{"dram.ns_per_access", "ns"},
		{"dram.est_ns_per_rec", "ns"},
		{"virt.ns_per_touch", "ns"},
		{"sweep.cell_ms_p50", "ms"},
		{"sweep.cell_ms_p90", "ms"},
		{"sweep.journal_put_ms", "ms"},
		{"sweep.cells_per_s", "cell/s"},
		{"consolidation.cold_walk_elim", "ratio"},
		{"consolidation.cold_p_avg_cycles", "cycles"},
		{"server.create_ms", "ms"},
		{"server.queue_depth_mean", "rec"},
		{"server.rejected_queue", "count"},
		{"server.rejected_rate", "count"},
		{"server.overhead_frac", "ratio"},
		{"server.post_ms_p50", "ms"},
		{"server.post_ms_p99", "ms"},
		{"sim.p_avg_cycles", "cycles"},
		{"sim.walk_elim", "ratio"},
		{"sim.ipc", "inst/cycle"},
		{"sim.data_lat_cycles", "cycles"},
	}
	for _, r := range resolveNames {
		defs = append(defs, metricDef{"sim.resolved." + r, "count"})
	}
	for _, m := range newSystemModes {
		defs = append(defs, metricDef{"core.newsystem_ms." + m, "ms"})
	}
	return append(defs, metricDef{"bench.trace_overhead", "rec/s"})
}()

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// checkMetrics verifies that got holds exactly the declared metrics, each
// with a legal name and unit and a finite value, and returns them with
// their units attached.
func checkMetrics(defs []metricDef, got map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		if err := validName(d.Name); err != nil {
			return nil, err
		}
		if err := validUnit(d.Unit); err != nil {
			return nil, err
		}
		v, ok := got[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if v != v || v > 1e300 || v < -1e300 {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(got) != len(defs) {
		var extra []string
		for k := range got {
			if _, ok := out[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("undeclared metrics measured: %v", extra)
	}
	return out, nil
}
