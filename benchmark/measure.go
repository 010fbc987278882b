package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"relaxfault/internal/campaign"
	"relaxfault/internal/fault"
	"relaxfault/internal/obs"
	"relaxfault/internal/perf"
	"relaxfault/internal/runtrace"
	"relaxfault/internal/scenario"
)

// workload is one named benchmark input set.
type workload interface {
	// scenarios builds the scenarios one round runs, from the round seed.
	scenarios(seed uint64) ([]*scenario.Scenario, error)
	// keyed reports whether the round runs its scenarios as keyed
	// campaigns (campaign.NewPlan is then part of set-up).
	keyed() bool
	// round runs the workload once into out (tr is nil untraced),
	// counting operations and recording failed checks.
	round(e *env, out *roundOut, tr *runtrace.Recorder) error
	// deepCheck runs the costlier independent checks once per run, on the
	// first round's outputs.
	deepCheck(e *env, out *roundOut) []error
	// layers measures the per-layer metrics of a traced round from
	// outside the program, adding them to vals.
	layers(e *env, out *roundOut, tr *runtrace.Recorder, vals map[string]float64) error
}

var workloads = map[string]workload{
	"coverage":    coverageWorkload{},
	"reliability": reliabilityWorkload{},
	"perf":        perfWorkload{},
}

func workloadNames() []string { return []string{"coverage", "reliability", "perf"} }

// counterNames are the program's obs counters a round reads before and
// after; their deltas feed checks and per-layer metrics.
var counterNames = []string{
	"relsim.trials_done",
	"relsim.coverage.nodes_sampled",
	"relsim.trials_skipped",
	"relsim.estimator.trials_saved",
	"relsim.faults.permanent",
	"journal.records",
	"campaign.hits",
	"campaign.chunks_reused",
	"perf.instructions",
	"perf.cycles",
	"perf.llc.hits",
	"perf.llc.misses",
	"perf.dram.row_hits",
	"perf.dram.row_conflicts",
}

type counterSnap map[string]int64

func snapCounters() counterSnap {
	s := make(counterSnap, len(counterNames))
	for _, n := range counterNames {
		s[n] = obs.Default().Counter(n).Value()
	}
	return s
}

// delta returns after-minus-before for every counter.
func (s counterSnap) delta(before counterSnap) counterSnap {
	d := make(counterSnap, len(s))
	for n, v := range s {
		d[n] = v - before[n]
	}
	return d
}

// roundOut is one workload round's outcome.
type roundOut struct {
	seed      uint64
	wall, cpu float64
	// work is the round's unit of useful output (Monte Carlo trials, or
	// simulated instructions) and workSecs the time of the pass that
	// computed it.
	work, workSecs float64
	ops, failed    int
	checks         []error
	counters       counterSnap
	allocMB, gcs   float64
	// digest hashes every simulated statistic the round produced.
	digest string
	// dir is the round's store directory (removed after the run's checks).
	dir string
	// passes names the wall time of each timed pass.
	passes map[string]float64
	// kernel lists the Monte Carlo sections the round computed, for the
	// per-layer replay.
	kernel []kernelSection
	data   any
}

// passTotal sums the round's timed passes.
func (o *roundOut) passTotal() float64 {
	var t float64
	for _, p := range o.passes {
		t += p
	}
	return t
}

func (o *roundOut) failf(format string, args ...any) {
	o.checks = append(o.checks, fmt.Errorf(format, args...))
}

// opFailed records an operation that returned an error.
func (o *roundOut) opFailed(what string, err error) {
	o.failed++
	fmt.Fprintf(os.Stderr, "benchmark: %s failed: %v\n", what, err)
}

func digestOf(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%+v\n", p)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// roundSeed derives round r's seed from the run seed (round 0 uses the run
// seed itself), so successive rounds of one run see fresh inputs and a
// run's means average over more of the input distribution.
func roundSeed(seed uint64, r int) uint64 { return seed + uint64(r)*0x9E3779B97F4A7C15 }

// runRound runs one round with the process-level accounting around it.
func runRound(e *env, w workload, seed uint64, tr *runtrace.Recorder) (*roundOut, error) {
	out := &roundOut{seed: seed, passes: map[string]float64{}}
	// Every round starts from a collected heap, so no round pays for the
	// garbage of the one before it (or of a check run between them).
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0 := snapCounters()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	err := w.round(e, out, tr)
	out.wall = since(t0)
	out.cpu = cpuSeconds() - cpu0
	out.counters = snapCounters().delta(c0)
	runtime.ReadMemStats(&ms1)
	out.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	out.gcs = float64(ms1.NumGC - ms0.NumGC)
	return out, err
}

// timeSetup times the spec-to-engine-ready path of every scenario the
// workload runs (see setupOnce) and returns the per-pass times of each
// sample and their Lower share.
func timeSetup(w workload, seed uint64) (setup, lower []float64, err error) {
	scs, err := w.scenarios(seed)
	if err != nil {
		return nil, nil, err
	}
	docs := make([][]byte, len(scs))
	for i, sc := range scs {
		if docs[i], err = sc.Canonical(); err != nil {
			return nil, nil, err
		}
	}
	// The collector is off inside samples and runs between them, so no
	// sample pays for another's garbage. The first setupWarmSamples
	// single-pass samples are discarded: they fault in the memory later
	// samples reuse, and the last of them calibrates reps. Each kept sample
	// repeats the path reps times, enough for about setupSampleSeconds,
	// because a single pass takes well under a millisecond on some
	// workloads.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	reps := 1
	for s := -setupWarmSamples; s < setupSamples; s++ {
		runtime.GC()
		var lowerS float64
		t0 := time.Now()
		for rep := 0; rep < reps; rep++ {
			l, err := setupOnce(w, docs)
			if err != nil {
				return nil, nil, err
			}
			lowerS += l
		}
		d := since(t0)
		if s < 0 {
			reps = int(math.Ceil(setupSampleSeconds / d))
			continue
		}
		setup = append(setup, d/float64(reps))
		lower = append(lower, lowerS/float64(reps))
	}
	return setup, lower, nil
}

// setupOnce takes every scenario document from bytes to engine-ready:
// decode (which validates and lowers), Lower, Fingerprint, the fault
// models, campaign plans for keyed workloads, and the perf memory systems.
// It returns the seconds spent in Lower.
func setupOnce(w workload, docs [][]byte) (lowerS float64, err error) {
	for _, doc := range docs {
		sc, err := scenario.Decode(doc)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		low, err := sc.Lower()
		lowerS += since(t0)
		if err != nil {
			return 0, err
		}
		if _, err := sc.Fingerprint(); err != nil {
			return 0, err
		}
		for _, c := range low.Coverage {
			if _, err := fault.NewModel(c.Model); err != nil {
				return 0, err
			}
		}
		for _, c := range low.Reliability {
			if _, err := fault.NewModel(c.Model); err != nil {
				return 0, err
			}
		}
		if w.keyed() {
			if _, err := campaign.NewPlan(sc); err != nil {
				return 0, err
			}
		}
		for _, u := range low.Perf {
			if _, err := perf.NewMemSystem(u.Base.Mem); err != nil {
				return 0, err
			}
		}
	}
	return lowerS, nil
}

// measure runs the workload: after a warm-up round, untraced rounds for
// the end-to-end metrics, or alternating untraced and traced rounds of
// identical inputs for the per-layer metrics; set-up is timed last.
func measure(e *env, w workload) (*result, error) {
	res := &result{}
	account := func(out *roundOut) {
		res.attempted += out.ops
		res.failed += out.failed
		res.skipped += out.counters["relsim.trials_skipped"]
		res.checkErrs = append(res.checkErrs, out.checks...)
	}
	finish := func(out *roundOut) {
		if out.dir != "" {
			os.RemoveAll(out.dir)
		}
	}

	// A warm-up round of round 0's inputs grows the heap and faults in the
	// code before anything is timed; the run's deep checks use its output.
	warm, err := runRound(e, w, roundSeed(e.opts.seed, 0), nil)
	if err != nil {
		return nil, err
	}
	account(warm)
	res.checkErrs = append(res.checkErrs, w.deepCheck(e, warm)...)
	finish(warm)
	// Peak memory is read after the warm-up round alone: later rounds see
	// other inputs, and a maximum over more rounds would grow with speed.
	// It is a per-layer metric because one heavy node's planner scratch
	// sets it, so it spreads too far across seeds to carry a bound.
	peakRSS := peakRSSMB()
	e.logf("warm-up: wall=%.3fs peak_rss=%.1fMiB digest=%s", warm.wall, peakRSS, warm.digest)
	// Set-up is timed after the rounds, on a warm heap, so that samples
	// reuse memory the process already holds instead of faulting in pages.
	timeSetupNow := func() (setup, lower []float64, err error) {
		setup, lower, err = timeSetup(w, e.opts.seed)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		e.logf("setup: %s per pass, Lower %s", callStats(setup, "s"), callStats(lower, "s"))
		return setup, lower, nil
	}

	if !e.opts.trace {
		var walls, cpus []float64
		var work, workSecs float64
		start := time.Now()
		limit := time.Duration(e.opts.seconds) * time.Second
		// Rounds continue while another round of average length still fits.
		fits := func(r int) bool {
			elapsed := time.Since(start)
			return elapsed+elapsed/time.Duration(r) <= limit
		}
		for r := 0; r < minRounds || fits(r); r++ {
			out, err := runRound(e, w, roundSeed(e.opts.seed, r), nil)
			if err != nil {
				return nil, err
			}
			account(out)
			finish(out)
			walls = append(walls, out.wall)
			cpus = append(cpus, out.cpu)
			work += out.work
			workSecs += out.workSecs
			e.logf("round %d: seed=%d wall=%.3fs cpu=%.3fs work=%.0f in %.3fs ops=%d failed=%d",
				r, out.seed, out.wall, out.cpu, out.work, out.workSecs, out.ops, out.failed)
		}
		e.logf("rounds: %d, wall %s", len(walls), callStats(walls, "s"))
		e.logf("operations: attempted=%d failed=%d trials_skipped=%d", res.attempted, res.failed, res.skipped)
		setup, _, err := timeSetupNow()
		if err != nil {
			return nil, err
		}
		err = res.setMetrics(endToEnd, map[string]float64{
			"setup_s":    median(setup),
			"wall_s":     mean(walls),
			"cpu_s":      mean(cpus),
			"work_per_s": work / workSecs,
		})
		return res, err
	}

	// Untraced and traced rounds of round 0's inputs alternate in ABBA
	// blocks (untraced, traced, traced, untraced), so host drift during the
	// run weighs on both sides alike, until the untraced side has run for
	// traceSideSeconds. The per-layer metrics come from the last traced
	// round.
	seed := roundSeed(e.opts.seed, 0)
	var untracedS, tracedS []float64
	var untraced, traced *roundOut
	var tr *runtrace.Recorder
	var untracedTotal float64
	for i := 0; i%4 != 0 || untracedTotal < traceSideSeconds; i++ {
		tracing := i%4 == 1 || i%4 == 2
		var rec *runtrace.Recorder
		if tracing {
			rec = runtrace.New()
		}
		out, err := runRound(e, w, seed, rec)
		if err != nil {
			return nil, err
		}
		account(out)
		if tracing {
			if traced != nil {
				finish(traced)
			}
			traced, tr = out, rec
			// The layers' self-times partition the traced round's passes
			// (see mcLayers and perfWorkload.layers), so their sum is the
			// passes'.
			tracedS = append(tracedS, out.passTotal())
		} else {
			finish(out)
			untraced = out
			untracedS = append(untracedS, out.wall)
			untracedTotal += out.wall
		}
		e.logf("round %d: traced=%v wall %.3fs, passes %.3fs", i, tracing, out.wall, out.passTotal())
		if untraced != nil && traced != nil && untraced.digest != traced.digest {
			res.checkErrs = append(res.checkErrs, fmt.Errorf("simulated statistics differ between the untraced and the traced round (digest %s vs %s)", untraced.digest, traced.digest))
		}
	}
	defer finish(traced)
	_, lower, err := timeSetupNow()
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{
		"scenario.lower_s": median(lower),
		"go.alloc_mb":      traced.allocMB,
		"go.peak_rss_mb":   peakRSS,
		"go.gc_cycles":     traced.gcs,
		"trace.overhead_s": mean(tracedS) - mean(untracedS),
	}
	if err := w.layers(e, traced, tr, vals); err != nil {
		return nil, err
	}
	for _, d := range perLayer {
		if _, ok := vals[d.name]; !ok {
			vals[d.name] = 0 // a layer this workload does not exercise
		}
	}
	base := mean(untracedS)
	gap := 100 * (mean(tracedS) - base) / base
	vals["reconcile.gap_pct"] = gap
	e.logf("reconcile: layer self-times %.3fs vs untraced wall %.3fs: gap %.2f%% (tolerance %d%%)",
		mean(tracedS), base, gap, reconcileTolerancePct)
	if gap > reconcileTolerancePct || gap < -reconcileTolerancePct {
		res.checkErrs = append(res.checkErrs, fmt.Errorf("reconcile gap %.2f%% outside ±%d%%", gap, reconcileTolerancePct))
	}
	e.logf("operations: attempted=%d failed=%d trials_skipped=%d", res.attempted, res.failed, res.skipped)
	return res, res.setMetrics(perLayer, vals)
}
