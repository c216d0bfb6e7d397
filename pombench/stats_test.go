package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{-1, -1, 7}, -1},
	}
	for _, c := range cases {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Error("median reordered its input")
	}
}

func TestFailedOpsMissEveryLimit(t *testing.T) {
	inf := math.Inf(1)
	lat := []float64{1, 2, inf, 3, inf}
	if got := quantile(lat, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(lat, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with two failed ops = %v, want +Inf", got)
	}
}

// TestFailedOpsKeepMetricsFinite checks that a run with failed POSTs can
// still report its latency metrics: checkMetrics accepts them, so the
// result line with the failure count is printed.
func TestFailedOpsKeepMetricsFinite(t *testing.T) {
	inf := math.Inf(1)
	lat := []float64{1, 2, inf, 3, inf}
	if got := quantileDone(lat, 0.5); got != 2 {
		t.Errorf("median of finished ops = %v, want 2", got)
	}
	if got := quantileDone(lat, 0.99); !near(got, 2.98) {
		t.Errorf("p99 of finished ops = %v, want 2.98", got)
	}
	if got := quantileDone([]float64{inf, inf}, 0.99); got != 0 {
		t.Errorf("p99 with every op failed = %v, want 0", got)
	}
	defs := []metricDef{{"server.post_ms_p50", "ms"}, {"server.post_ms_p99", "ms"}}
	got := map[string]float64{"server.post_ms_p50": quantileDone(lat, 0.5), "server.post_ms_p99": quantileDone(lat, 0.99)}
	if _, err := checkMetrics(defs, got); err != nil {
		t.Errorf("checkMetrics rejects the latencies of a run with failed ops: %v", err)
	}
}

// TestQuantileInterpolates covers the quartiles rec_per_s uses and the
// tail percentiles: linear interpolation between closest ranks.
func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30}
	for q, want := range map[float64]float64{0: 10, 0.25: 20, 0.5: 30, 0.75: 40, 0.9: 46, 1: 50} {
		if got := quantile(xs, q); !near(got, want) {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{10_000, 99.9, true},
		{9_999, 99, true},
		{1_000, 99, true},
		{999, 95, true},
		{200, 95, true},
		{199, 90, true},
		{100, 90, true},
		{40, 75, true},
		{39, 50, true},
		{20, 50, true},
		{19, 50, false},
		{0, 50, false},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n, 10)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = p%v ok=%v, want p%v ok=%v", c.n, p, ok, c.want, c.ok)
		}
		if ok && float64(c.n)*(1-p/100) < 10-1e-9 {
			t.Errorf("n=%d: p%v leaves fewer than 10 samples beyond it", c.n, p)
		}
	}
}

func TestFailShare(t *testing.T) {
	if got := failShare(0, 1000); got != 0 {
		t.Errorf("failShare(0, 1000) = %v", got)
	}
	if got := failShare(5, 20); !near(got, 0.25) {
		t.Errorf("failShare(5, 20) = %v", got)
	}
	if got := failShare(0, 0); got != 1 {
		t.Errorf("nothing attempted reads as %v, want total failure", got)
	}
}

func TestValidName(t *testing.T) {
	good := []string{"rec_per_s", "sim.resolved.l1tlb", "core.newsystem_ms.pom-tlb", "9lives", "a", strings.Repeat("x", 64)}
	bad := []string{"", "_x", ".x", "-x", "has space", "sim.resolved.{l1tlb}", "per/s", "ünïcode",
		strings.Repeat("x", 65)}
	for _, s := range good {
		if err := validName(s); err != nil {
			t.Errorf("validName(%q) = %v", s, err)
		}
	}
	for _, s := range bad {
		if validName(s) == nil {
			t.Errorf("validName(%q) accepted", s)
		}
	}
	if validUnit("rec/s") != nil || validUnit("%") != nil || validUnit("") == nil || validUnit("a b") == nil {
		t.Error("validUnit misjudges units")
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric tables the program
// reports and the repository's BENCHMARK.json in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, names, units []string) {
		if len(defs) != len(names) {
			t.Errorf("%s: program declares %d metrics, BENCHMARK.json %d", kind, len(defs), len(names))
			return
		}
		for i, d := range defs {
			if d.Name != names[i] || d.Unit != units[i] {
				t.Errorf("%s %d: program %s [%s], BENCHMARK.json %s [%s]", kind, i, d.Name, d.Unit, names[i], units[i])
			}
		}
	}
	var n, u []string
	for _, m := range bench.EndToEnd {
		n, u = append(n, m.Name), append(u, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", endToEnd, n, u)
	n, u = nil, nil
	for _, m := range bench.PerLayer {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	check("per_layer", perLayer, n, u)

	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if err := validName(d.Name); err != nil {
			t.Error(err)
		}
		if err := validUnit(d.Unit); err != nil {
			t.Error(err)
		}
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(names), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if names[i] != w.name {
			t.Errorf("workload %d: program %s, BENCHMARK.json %s", i, w.name, names[i])
		}
	}
}

func TestCheckMetricsWantsExactlyTheDeclaredSet(t *testing.T) {
	defs := []metricDef{{"a", "s"}, {"b", "ms"}}
	if _, err := checkMetrics(defs, map[string]float64{"a": 1}); err == nil {
		t.Error("missing metric accepted")
	}
	if _, err := checkMetrics(defs, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil {
		t.Error("undeclared metric accepted")
	}
	if _, err := checkMetrics(defs, map[string]float64{"a": 1, "b": math.NaN()}); err == nil {
		t.Error("NaN accepted")
	}
	if _, err := checkMetrics([]metricDef{{"bad name", "s"}}, map[string]float64{"bad name": 1}); err == nil {
		t.Error("illegal metric name accepted")
	}
	got, err := checkMetrics(defs, map[string]float64{"a": 1, "b": 2})
	if err != nil || got["b"].Unit != "ms" || got["b"].Value != 2 {
		t.Errorf("checkMetrics = %v, %v", got, err)
	}
}
