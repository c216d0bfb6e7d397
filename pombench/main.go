// Command pombench is the repository benchmark of the POM-TLB simulator.
// It runs one workload for a fixed time, checks the simulator's outputs,
// and prints as its last line a JSON object with the fields correct,
// attempted, failed and metrics:
//
//	bash pombench/run.sh --workload pom-gups --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (tracing off); with
// --trace 1 they are the per-layer ones, and the run keeps spans in
// memory and writes them to --out when it ends. README.md in this
// directory says why each workload exists and which end-to-end metric
// each layer metric should move.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// runOpts are the command-line settings every workload sees.
type runOpts struct {
	seed    uint64
	seconds float64
	trace   bool
	tr      *tracer // nil unless tracing
	tmpDir  string  // temporary files, inside the output directory
}

// deadline returns the end of a measured phase that starts now.
func (o runOpts) deadline() time.Time {
	return time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
}

// outcome is what one workload run produced.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	failures  []string
	notes     []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// op counts one attempted operation, failed when err is non-nil.
func (o *outcome) op(what string, err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.failures) < 20 {
			o.failures = append(o.failures, fmt.Sprintf("%s: %v", what, err))
		}
	}
}

// check counts one correctness check.
func (o *outcome) check(what string, err error) { o.op("check "+what, err) }

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// set stores a metric.
func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

// workload runs one named workload.
type workload struct {
	name string
	run  func(ctx context.Context, o runOpts) (*outcome, error)
}

var allWorkloads = []workload{
	{"pom-gups", func(ctx context.Context, o runOpts) (*outcome, error) { return runGups(ctx, o, "pom-tlb") }},
	{"walk-gups", func(ctx context.Context, o runOpts) (*outcome, error) { return runGups(ctx, o, "baseline") }},
	{"consol-sweep", runSweep},
	{"ingest-stream", runIngest},
}

// provenance identifies the code and host a result came from.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Started    string  `json:"started"`
}

// commit names the code under test: git's HEAD when the benchmark runs
// from the root of a git checkout, the revision stamped into the binary
// otherwise.
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown (not a git checkout)"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pombench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run: pom-gups, walk-gups, consol-sweep or ingest-stream")
	seed := flag.Uint64("seed", 1, "workload seed (inputs are generated from it)")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	outDir := flag.String("out", ".bench_build/out", "directory for span files and temporary files")
	flag.Parse()
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", *traceFlag)
	}
	if *seconds <= 0 || *seconds > 600 {
		return fmt.Errorf("--seconds %v out of range (0, 600]", *seconds)
	}
	var w *workload
	for i := range allWorkloads {
		if allWorkloads[i].name == *name {
			w = &allWorkloads[i]
		}
	}
	if w == nil {
		var names []string
		for _, w := range allWorkloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(names, ", "))
	}

	prov := provenance{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *traceFlag == 1,
		Commit: commit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), CPUModel: cpuModel(), Started: time.Now().UTC().Format(time.RFC3339),
	}
	provJSON, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Println("provenance:", string(provJSON))

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(*outDir, "tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	o := runOpts{seed: *seed, seconds: *seconds, trace: prov.Trace, tmpDir: tmp}
	if o.trace {
		o.tr = newTracer()
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out, err := w.run(ctx, o)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	metrics, err := checkMetrics(defs, out.metrics)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if o.trace {
		path := filepath.Join(*outDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, *seed))
		if err := o.tr.write(path, prov); err != nil {
			return err
		}
		fmt.Printf("spans: %s (%d spans)\n", path, len(o.tr.spans))
	}

	for _, n := range out.notes {
		fmt.Println("note:", n)
	}
	for _, f := range out.failures {
		fmt.Println("FAILED:", f)
	}
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %-34s %16.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	fmt.Printf("failed share: %.4f (%d of %d operations and checks)\n",
		failShare(out.failed, out.attempted), out.failed, out.attempted)

	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}
