// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives the built cmd/repro and cmd/memmodeld binaries as
// separate processes under four workloads, checks their outputs, and
// prints one JSON result line:
//
//	perfbench -root . -bin .bench_build/bin --workload fleet --seed 1 --seconds 30 --trace 0
//	perfbench -root . compare [-bench BENCHMARK.json] <parent-set> <change-set>
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it reruns the workload traced and carries the per-layer
// breakdown instead. perfbench/run.sh builds everything and is the
// normal entry point; README.md in this directory documents the
// workloads, metrics and compare mode.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runDeadline bounds one invocation, leaving headroom under the
// three-minute limit a single benchmark run must meet.
const runDeadline = 170 * time.Second

// setupRepeats is how many times a run sets up (launches the daemon, or
// runs `repro -list`); setup_s is the median.
const setupRepeats = 5

// metricDef is one reported metric and its unit. The two tables below
// are the single source of the names BENCHMARK.json lists (a test keeps
// them in step).
type metricDef struct{ name, unit string }

// endToEnd is what a user of each workload sees; every workload reports
// every one (README.md gives the per-workload definitions).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"cpu_us_per_op", "us"},
	{"p50_ms", "ms"},
	{"max_rps", "1/s"},
}

// perLayer is the traced breakdown. A layer a workload never exercises
// reads 0 on that workload.
var perLayer = []metricDef{
	// cmd/repro CPU profile grouped by package.
	{"cache.self_s", "s"},
	{"memsys.self_s", "s"},
	{"workloads.self_s", "s"},
	{"cpu.self_s", "s"},
	{"sim.self_s", "s"},
	{"pmu.self_s", "s"},
	{"trace.self_s", "s"},
	{"experiments.self_s", "s"},
	{"model.self_s", "s"},
	{"regress.self_s", "s"},
	{"engine.self_s", "s"},
	{"runtime.self_s", "s"},
	{"other.self_s", "s"},
	// cmd/repro counts from its manifest and stdout.
	{"simcache.misses", "count"},
	{"simcache.hits", "count"},
	{"engine.fit_wall_s", "s"},
	{"engine.longest_fit_s", "s"},
	{"engine.max_parallel", "count"},
	// Measurement-stack layer ladder, timed by direct calls.
	{"sim.ns_per_instr", "ns"},
	{"cache.access_ns", "ns"},
	{"memsys.access_ns", "ns"},
	{"model.fit_us", "us"},
	// Serving stack: client spans and /metrics deltas.
	{"loadgen.lag_p99_ms", "ms"},
	{"serve.server_p50_ms", "ms"},
	{"serve.server_p99_ms", "ms"},
	{"http.overhead_p50_ms", "ms"},
	{"serve.server_mean_ms", "ms"},
	{"http.overhead_mean_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_evictions", "count"},
	{"serve.shed", "count"},
	{"solve.solves", "count"},
	{"solve.iterations", "count"},
	// Serving-stack layer ladder on the workload's own bodies.
	{"api.decode_us", "us"},
	{"model.key_us", "us"},
	{"serve.cache_hit_us", "us"},
	{"serve.cache_miss_us", "us"},
	{"model.evaluate_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.handler_us", "us"},
	{"serve.unattributed_us", "us"},
	// Fleet simulator.
	{"cluster.simulate_ms", "ms"},
	{"cluster.events_per_sim", "count"},
	{"cluster.events_per_s", "1/s"},
	// The end-to-end tail, p90 of the same samples as p50_ms. On a shared
	// 2-vCPU host it moves with host stalls by more than any bound
	// allows, so it is reported here, without one.
	{"latency.p90_ms", "ms"},
	// Peak RSS of the system process (repro, or memmodeld at the end of
	// the run). Go's peak heap depends on GC timing: repro's varies by
	// about a fifth between identical runs, too much to carry a bound.
	{"proc.max_rss_mb", "MB"},
	// Traced minus untraced headline metric.
	{"tracing.overhead_pct", "%"},
}

// env is what every workload runs with.
type env struct {
	root    string // checkout root: results/manifest.json lives here
	bin     string // directory holding repro and memmodeld
	work    string // per-run working directory, removed on exit
	traces  string // directory the traced runs write their spans to
	name    string // workload name
	seed    uint64
	seconds float64
	trace   bool
	conns   int // load-generator connections and threads: nproc
}

// report is one workload run's outcome before formatting.
type report struct {
	attempted, failed int64
	e2e               map[string]float64
	layers            map[string]float64
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// count adds ops to the attempted and failed totals.
func (r *report) count(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

type workloadFunc func(ctx context.Context, e *env) (*report, error)

var workloadTable = map[string]workloadFunc{
	"repro-full": runReproFull,
	"serve-hot":  func(ctx context.Context, e *env) (*report, error) { return runServe(ctx, e, hotMix) },
	"serve-cold": func(ctx context.Context, e *env) (*report, error) { return runServe(ctx, e, coldMix) },
	"fleet":      runFleet,
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	root := fs.String("root", ".", "repository checkout root")
	bin := fs.String("bin", ".bench_build/bin", "directory holding the built repro and memmodeld binaries")
	name := fs.String("workload", "", "workload: repro-full, serve-hot, serve-cold or fleet")
	seed := fs.Uint64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 10, "measurement budget of one run in seconds")
	trace := fs.Int("trace", 0, "1 reruns the workload traced and reports the per-layer breakdown")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.Arg(0) == "compare" {
		return compareMain(*root, fs.Args()[1:])
	}
	w, ok := workloadTable[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	absBin, err := filepath.Abs(*bin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	work := filepath.Join(absRoot, ".bench_build", "work", fmt.Sprintf("%s-%d", *name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	e := &env{
		root:    absRoot,
		bin:     absBin,
		work:    work,
		traces:  filepath.Join(absRoot, ".bench_build", "traces"),
		name:    *name,
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		conns:   runtime.NumCPU(),
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	rep, err := w(ctx, e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := formatResult(rep, e.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloadTable {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// formatResult renders the result line: every end-to-end metric, or with
// traced set every per-layer metric (0 for layers the workload does not
// exercise). A missing or non-positive end-to-end metric is a bug in
// the workload and fails the run.
func formatResult(r *report, traced bool) ([]byte, error) {
	if r.attempted < 1 {
		return nil, fmt.Errorf("no operations attempted")
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	if traced {
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{Value: r.layers[m.name], Unit: m.unit}
		}
	} else {
		for _, m := range endToEnd {
			v, ok := r.e2e[m.name]
			if !ok || !(v > 0) {
				return nil, fmt.Errorf("end-to-end metric %s not measured (%v)", m.name, v)
			}
			res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		}
	}
	return json.Marshal(res)
}
