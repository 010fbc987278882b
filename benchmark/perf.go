package main

import (
	"context"
	"encoding/json"
	"math"
	"time"

	"relaxfault/internal/perf"
	"relaxfault/internal/runtrace"
	"relaxfault/internal/scenario"
	"relaxfault/internal/trace"
)

// perfInstructions is the per-core instruction budget of every perf run.
const perfInstructions = 50_000

// issueWidth is the perf core model's retire width (instructions per cycle).
const issueWidth = 4

// perfWorkload is the cycle-level weighted-speedup model under LLC
// way-locking (no repair, 1 way, 4 ways): the memory-intensive MEM mix and
// the compute-bound COMP mix, each on DDR3-1600 and on DDR4-2400 with
// bank-group timing. No Monte Carlo work runs.
type perfWorkload struct{}

func (perfWorkload) keyed() bool { return false }

func (perfWorkload) scenarios(seed uint64) ([]*scenario.Scenario, error) {
	var scs []*scenario.Scenario
	for _, tech := range []string{"ddr3-1600", "ddr4-2400"} {
		sc := &scenario.Scenario{
			Name:       "bench-perf-" + tech,
			Kind:       scenario.KindPerf,
			Technology: tech,
			Seed:       &seed,
			Budget:     scenario.Budget{Instructions: perfInstructions},
			Perf: &scenario.PerfSpec{
				Workloads: []string{"MEM", "COMP"},
				Locks: []scenario.LockSpec{
					{Label: "no-repair"},
					{Label: "1-way", Ways: 1},
					{Label: "4-way", Ways: 4},
				},
			},
		}
		if err := sc.Validate(); err != nil {
			return nil, err
		}
		scs = append(scs, sc)
	}
	return scs, nil
}

type perfData struct {
	units []scenario.PerfUnitConfig
}

func (w perfWorkload) round(e *env, out *roundOut, tr *runtrace.Recorder) error {
	scs, err := w.scenarios(out.seed)
	if err != nil {
		return err
	}
	d := &perfData{}
	out.data = d
	var docs []any
	c0 := snapCounters()
	t0 := time.Now()
	for _, sc := range scs {
		low, err := sc.Lower()
		if err != nil {
			return err
		}
		out.ops += len(low.Perf)
		res, err := scenario.RunCtx(context.Background(), sc, scenario.Exec{Workers: e.opts.workers, Trace: tr})
		if err != nil {
			out.opFailed("perf "+sc.Name, err)
			continue
		}
		d.units = append(d.units, low.Perf...)
		for _, u := range res.Perf {
			checkPerfUnit(out, u, sc.Budget.Instructions)
		}
		raw, err := json.Marshal(res.Perf)
		if err != nil {
			return err
		}
		docs = append(docs, string(raw))
	}
	out.passes["compute"] = since(t0)
	out.work = float64(snapCounters().delta(c0)["perf.instructions"])
	out.workSecs = out.passes["compute"]
	out.digest = digestOf(docs...)
	return nil
}

// checkPerfUnit checks one unit's simulated statistics for internal
// consistency: every core retires its target at a legal IPC, LLC hits
// and misses account for every access that reached the LLC, DRAM row hits
// and conflicts account for every column access, and the baseline's
// relative power is 100.
//
// Accesses reach the LLC as demand misses of the L2s (counted per core)
// and as dirty L2 victims written back, which no result counts. Each L2
// install evicts at most one victim, and L2 installs are the demand misses
// plus dirty L1 victims (at most the L1 misses), so the LLC total must lie
// in [demand, demand + demand + L1 misses].
func checkPerfUnit(out *roundOut, u scenario.PerfUnit, target uint64) {
	for li, r := range u.Results {
		var demand, l1Misses uint64
		for _, c := range r.Cores {
			if c.Instructions != target || c.Cycles <= 0 {
				out.failf("perf: %s/%s core %s retired %d in %d cycles, target %d", u.Workload, u.Locks[li].Label, c.Name, c.Instructions, c.Cycles, target)
			}
			if c.IPC > issueWidth || math.Abs(c.IPC*float64(c.Cycles)-float64(c.Instructions)) > 1e-6*float64(c.Instructions) {
				out.failf("perf: %s/%s core %s IPC %v over %d cycles", u.Workload, u.Locks[li].Label, c.Name, c.IPC, c.Cycles)
			}
			demand += c.LLCHits + c.MemAccesses
			l1Misses += c.L2Hits + c.LLCHits + c.MemAccesses
		}
		if llc := r.LLCHits + r.LLCMisses; llc < demand || llc > 2*demand+l1Misses {
			out.failf("perf: %s/%s LLC hits %d + misses %d outside [%d, %d], the accesses that can reach the LLC",
				u.Workload, u.Locks[li].Label, r.LLCHits, r.LLCMisses, demand, 2*demand+l1Misses)
		}
		if cols := r.Ops.Reads + r.Ops.Writes; r.RowHits+r.RowMisses != cols {
			out.failf("perf: %s/%s row hits %d + conflicts %d != %d column accesses", u.Workload, u.Locks[li].Label, r.RowHits, r.RowMisses, cols)
		}
		if s := u.Speedups[li]; math.IsNaN(s) || s <= 0 {
			out.failf("perf: %s/%s weighted speedup %v", u.Workload, u.Locks[li].Label, s)
		}
	}
	if len(u.RelPower) == 0 || u.RelPower[0] != 100 {
		out.failf("perf: %s baseline relative power %v, want 100", u.Workload, u.RelPower)
	}
}

func (perfWorkload) deepCheck(*env, *roundOut) []error { return nil }

// layers reads the perf.run spans and perf counters of the traced round,
// and times from outside the two steps every run repeats: building the
// memory system (perf.NewMemSystem) and generating the instruction
// streams (trace.NewThread) the cores consume. perf.run, the engine
// around it and the scenario layer partition the traced round's pass.
func (perfWorkload) layers(e *env, out *roundOut, tr *runtrace.Recorder, vals map[string]float64) error {
	runs, runS := spanTotal(tr, "perf.run")
	c := out.counters
	vals["perf.run_s"] = runS
	vals["perf.runs"] = float64(runs)
	vals["perf.sim_cycles"] = float64(c["perf.cycles"])
	vals["perf.sim_instr"] = float64(c["perf.instructions"])
	if c["perf.cycles"] > 0 {
		vals["perf.host_ns_per_sim_cycle"] = runS * 1e9 / float64(c["perf.cycles"])
	}
	if n := c["perf.llc.hits"] + c["perf.llc.misses"]; n > 0 {
		vals["cache.llc_hit_ratio"] = float64(c["perf.llc.hits"]) / float64(n)
	}
	if n := c["perf.dram.row_hits"] + c["perf.dram.row_conflicts"]; n > 0 {
		vals["dram.row_hit_ratio"] = float64(c["perf.dram.row_hits"]) / float64(n)
	}

	d, _ := out.data.(*perfData)
	var memsysS, genS float64
	for _, u := range d.units {
		// Each unit runs every thread alone, then the whole mix once per
		// lock configuration.
		var runsThreads [][]trace.ThreadParams
		for _, t := range u.Workload.Threads {
			runsThreads = append(runsThreads, []trace.ThreadParams{t})
		}
		for range u.Locks {
			runsThreads = append(runsThreads, u.Workload.Threads)
		}
		for _, threads := range runsThreads {
			t0 := time.Now()
			if _, err := perf.NewMemSystem(u.Base.Mem); err != nil {
				return err
			}
			memsysS += since(t0)
			t0 = time.Now()
			for _, tp := range threads {
				tp.Seed ^= u.Base.Seed * 0x9E3779B9 // as perf.Run seeds each core
				gen := trace.NewThread(tp)
				for n := uint64(0); n < u.Base.TargetInstructions; {
					n += uint64(gen.Next().NonMem) + 1
				}
			}
			genS += since(t0)
		}
	}
	vals["perf.memsys_new_s"] = memsysS
	vals["trace.gen_s"] = genS
	return nil
}
