// Command benchmark is the repository's performance yardstick: one process,
// one named workload, one Monte Carlo worker. It drives the simulator
// through its public packages exactly as the CLI does (scenario lowering,
// keyed campaigns, the perf model), checks every output against
// computations of its own, and prints the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced run, as one JSON line.
//
//	go run ./benchmark --workload coverage --seed 7 --seconds 30 --trace 0
//
// See benchmark/README.md for the workloads, the metrics and what moves
// them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit; the lists below are the
// single source BENCHMARK.json is tested against.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"work_per_s", "1/s"},
}

// plannerKeys are the metric-name keys of the three evaluated planners.
var plannerKeys = []string{"ppr", "freefault", "relaxfault"}

// perLayer are the metrics of a traced run. A layer the workload does not
// exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"scenario.lower_s", "s"},
		{"fault.sample_s", "s"},
		{"fault.sample_ns_per_node", "ns"},
		{"fault.sample_nodes", "count"},
		{"fault.faults_per_node", "count"},
	}
	for _, p := range plannerKeys {
		defs = append(defs,
			metricDef{"repair." + p + ".plan_s", "s"},
			metricDef{"repair." + p + ".plan_us_per_node", "us"},
			metricDef{"repair." + p + ".plan_nodes", "count"},
			metricDef{"repair." + p + ".repairable_ratio", "ratio"},
		)
	}
	return append(defs,
		metricDef{"relsim.kernel_s", "s"},
		metricDef{"relsim.analysis_s", "s"},
		metricDef{"relsim.driver_s", "s"},
		metricDef{"relsim.trials", "count"},
		metricDef{"relsim.trials_saved", "count"},
		metricDef{"journal.appends", "count"},
		metricDef{"journal.append_s", "s"},
		metricDef{"checkpoint.flushes", "count"},
		metricDef{"checkpoint.flush_s", "s"},
		metricDef{"checkpoint.bytes", "B"},
		metricDef{"campaign.compute_s", "s"},
		metricDef{"campaign.hit_s", "s"},
		metricDef{"campaign.extend_s", "s"},
		metricDef{"campaign.hits", "count"},
		metricDef{"campaign.chunks_verified", "count"},
		metricDef{"campaign.chunks_reused", "count"},
		metricDef{"perf.memsys_new_s", "s"},
		metricDef{"perf.run_s", "s"},
		metricDef{"perf.runs", "count"},
		metricDef{"perf.sim_cycles", "count"},
		metricDef{"perf.sim_instr", "count"},
		metricDef{"perf.host_ns_per_sim_cycle", "ns"},
		metricDef{"trace.gen_s", "s"},
		metricDef{"cache.llc_hit_ratio", "ratio"},
		metricDef{"dram.row_hit_ratio", "ratio"},
		metricDef{"go.alloc_mb", "MiB"},
		metricDef{"go.peak_rss_mb", "MiB"},
		metricDef{"go.gc_cycles", "count"},
		metricDef{"trace.overhead_s", "s"},
		metricDef{"reconcile.gap_pct", "%"},
	)
}()

// reconcileTolerancePct is the stated bound on |reconcile.gap_pct|: the sum
// of layer self-times of the traced rounds against the untraced rounds'
// wall time. A traced run outside it fails its correctness check.
const reconcileTolerancePct = 25

// traceSideSeconds is how long the untraced side of a traced run runs at
// least: identical rounds of a few seconds differ by up to 15% on a busy
// host, so the comparison needs several of them.
const traceSideSeconds = 10

// minRounds is the fewest workload rounds one untraced run measures,
// however short --seconds is, so every reported mean has company.
const minRounds = 3

// setupSamples is how many set-up samples one run takes; setup_s is their
// median.
const setupSamples = 61

// setupWarmSamples is how many set-up samples are taken and discarded
// first.
const setupWarmSamples = 5

// setupSampleSeconds is about how long one set-up sample lasts.
const setupSampleSeconds = 0.01

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	workers  int
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	w, ok := workloads[opts.workload]
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want %s)\n", opts.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	// Stores live in a scratch directory under the working directory (the
	// benchmark reads and writes nothing outside it) and go away with it.
	if err := os.MkdirAll(scratchParent, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	scratch, err := os.MkdirTemp(scratchParent, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	env := &env{opts: opts, scratch: scratch, out: stdout}
	env.printHostFacts()
	res, err := measure(env, w)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", opts.workload, err)
		return 1
	}
	for _, e := range res.checkErrs {
		fmt.Fprintf(stdout, "CHECK FAILED: %v\n", e)
	}
	line, err := json.Marshal(res.report())
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// scratchParent holds every run's scratch directory (stores, journals),
// relative to the working directory.
const scratchParent = ".bench_build/scratch"

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 7, "workload seed: the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 30, "how long the untraced run measures")
	fs.IntVar(&trace, "trace", 0, "0 reports end-to-end metrics; 1 runs traced and reports per-layer metrics")
	fs.IntVar(&o.workers, "workers", 1, "Monte Carlo workers (at most the CPU count)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.workload == "" {
		return o, errors.New("--workload is required")
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	// More workers than CPUs would time an oversubscribed pool as if it
	// were real parallelism.
	if o.workers < 1 || o.workers > runtime.NumCPU() {
		return o, fmt.Errorf("--workers must be in [1, %d] (the CPU count), got %d", runtime.NumCPU(), o.workers)
	}
	return o, nil
}

// env is what every workload round sees: the options, a scratch directory
// for stores, and the report stream.
type env struct {
	opts    options
	scratch string
	out     io.Writer
	dirs    int
}

// freshDir returns a new empty directory under the run's scratch.
func (e *env) freshDir(prefix string) (string, error) {
	e.dirs++
	dir := filepath.Join(e.scratch, fmt.Sprintf("%s-%d", prefix, e.dirs))
	return dir, os.MkdirAll(dir, 0o755)
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.out, format+"\n", args...) }

func (e *env) printHostFacts() {
	e.logf("host: nproc=%d GOMAXPROCS=%d workers=%d go=%s cpu=%q store_fs=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), e.opts.workers, runtime.Version(), cpuModel(), fsType(e.scratch))
	e.logf("run: workload=%s seed=%d seconds=%d trace=%v", e.opts.workload, e.opts.seed, e.opts.seconds, e.opts.trace)
}

// result is one run's outcome: the reported metrics plus the operation
// accounting and any failed checks.
type result struct {
	metrics   map[string]metricValue
	attempted int
	failed    int
	skipped   int64
	checkErrs []error
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) report() map[string]any {
	return map[string]any{
		"correct":   len(r.checkErrs) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	}
}

// setMetrics fills the reported metrics from values keyed by name, in the
// order and with the units of defs; a name missing from values is a bug.
func (r *result) setMetrics(defs []metricDef, values map[string]float64) error {
	r.metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		r.metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return nil
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// callStats summarises per-call timings: the median, and the 99th
// percentile only when at least ten samples lie beyond it.
func callStats(xs []float64, unit string) string {
	if len(xs) == 0 {
		return "n=0"
	}
	s := fmt.Sprintf("median %.4g%s", median(xs), unit)
	if len(xs) >= 1000 {
		s += fmt.Sprintf(" p99 %.4g%s", quantile(xs, 0.99), unit)
	}
	return s + fmt.Sprintf(" (n=%d)", len(xs))
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }
