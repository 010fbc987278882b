package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"relaxfault/internal/addrmap"
	"relaxfault/internal/dram"
	"relaxfault/internal/fault"
	"relaxfault/internal/perf"
	"relaxfault/internal/relsim"
	"relaxfault/internal/runtrace"
	"relaxfault/internal/scenario"
	"relaxfault/internal/stats"
)

// covFaultyNodes is the coverage round's faulty-node target.
const covFaultyNodes = 4000

// oracleNodes is how many faulty nodes the coverage oracle re-plans.
const oracleNodes = 300

// coverageWorkload is the Figure 10/11-shaped study at 10x FIT: PPR,
// FreeFault+hash and RelaxFault at way limits {1, 4, 16}, naive estimator,
// no store. Repair-planner line enumeration dominates it.
type coverageWorkload struct{}

func (coverageWorkload) keyed() bool { return false }

func (coverageWorkload) scenarios(seed uint64) ([]*scenario.Scenario, error) {
	sc, err := scenario.Preset("fig11")
	if err != nil {
		return nil, err
	}
	sc.Seed = &seed
	sc.Budget.FaultyNodes = covFaultyNodes
	return []*scenario.Scenario{sc}, nil
}

type coverageData struct {
	cfg relsim.CoverageConfig
	res *relsim.CoverageResult
}

func (w coverageWorkload) round(e *env, out *roundOut, tr *runtrace.Recorder) error {
	scs, err := w.scenarios(out.seed)
	if err != nil {
		return err
	}
	sc := scs[0]
	out.ops++
	t0 := time.Now()
	res, err := scenario.RunCtx(context.Background(), sc, scenario.Exec{Workers: e.opts.workers, Trace: tr})
	out.passes["compute"] = since(t0)
	if err != nil {
		out.opFailed("coverage study", err)
		return nil
	}
	low, err := sc.Lower()
	if err != nil {
		return err
	}
	cov := res.Coverage[0]
	cfg := low.Coverage[0]
	out.work = float64(cov.TotalNodes)
	out.workSecs = out.passes["compute"]
	out.data = &coverageData{cfg: cfg, res: cov}
	out.kernel = []kernelSection{{cov: &cfg, chunkHi: (cov.TotalNodes + relsim.CoverageChunkSize - 1) / relsim.CoverageChunkSize}}
	out.digest = digestOf(coverageSummary(cov))
	checkCoverage(out, &cfg, cov)
	return nil
}

// coverageSummary renders every statistic of a coverage result.
func coverageSummary(r *relsim.CoverageResult) []string {
	s := []string{fmt.Sprintf("nodes %d faulty %d skipped %d", r.TotalNodes, r.FaultyNodes, r.SkippedTrials)}
	for _, c := range r.Curves {
		s = append(s, fmt.Sprintf("%s/%d %d %v %v %v", c.Planner, c.WayLimit, c.FaultyNodes(),
			c.Coverage(), c.CapacityQuantile(0.5), c.CapacityQuantile(0.9)))
	}
	return s
}

// checkCoverage checks the study's own properties: the faulty-node target
// is met, each curve saw every faulty node, and every planner's coverage
// is a fraction that does not fall as the way limit grows.
func checkCoverage(out *roundOut, cfg *relsim.CoverageConfig, r *relsim.CoverageResult) {
	if r.FaultyNodes < cfg.FaultyNodes && r.TotalNodes < cfg.MaxNodes {
		out.failf("coverage: %d faulty nodes after %d sampled, target %d", r.FaultyNodes, r.TotalNodes, cfg.FaultyNodes)
	}
	if r.SkippedTrials != 0 {
		out.failf("coverage: %d trials skipped", r.SkippedTrials)
	}
	if want := len(cfg.Planners) * len(cfg.WayLimits); len(r.Curves) != want {
		out.failf("coverage: %d curves, want %d", len(r.Curves), want)
	}
	ways := append([]int(nil), cfg.WayLimits...)
	sort.Ints(ways)
	for _, p := range cfg.Planners {
		prev := -1.0
		for _, w := range ways {
			c := r.Curve(p.Name(), w)
			if c == nil {
				out.failf("coverage: no curve for %s at %d ways", p.Name(), w)
				continue
			}
			v := c.Coverage()
			if v < 0 || v > 1 {
				out.failf("coverage: %s at %d ways is %v, not a fraction", p.Name(), w, v)
			}
			if v < prev {
				out.failf("coverage: %s falls from %v to %v as the way limit grows to %d", p.Name(), prev, v, w)
			}
			prev = v
			if c.FaultyNodes() != r.FaultyNodes {
				out.failf("coverage: %s/%d saw %d faulty nodes, study %d", p.Name(), w, c.FaultyNodes(), r.FaultyNodes)
			}
		}
	}
}

// deepCheck re-plans a deterministic sample of the study's faulty nodes
// (the first oracleNodes of them, drawn from the study's own RNG streams)
// and compares every RelaxFault and FreeFault verdict with the oracle.
func (coverageWorkload) deepCheck(e *env, out *roundOut) []error {
	d, ok := out.data.(*coverageData)
	if !ok {
		return nil
	}
	errs, checked := oracleCheck(&d.cfg, oracleNodes)
	e.logf("oracle: %d faulty nodes re-planned, %d mismatches", checked, len(errs))
	return errs
}

// oracleCheck compares planner verdicts with the oracle on the first n
// faulty nodes of cfg's node stream.
func oracleCheck(cfg *relsim.CoverageConfig, n int) (errs []error, checked int) {
	model, err := fault.NewModel(cfg.Model)
	if err != nil {
		return []error{err}, 0
	}
	o, err := newOracle(cfg.Model.Geometry)
	if err != nil {
		return []error{err}, 0
	}
	root := stats.NewRNG(cfg.Seed)
	for node := 0; checked < n && node < cfg.MaxNodes; node++ {
		nf := model.SampleNode(root.Fork(uint64(node)))
		perm := nf.PermanentFaults()
		if len(perm) == 0 {
			continue
		}
		checked++
		for _, p := range cfg.Planners {
			kind, hash := oracleKind(p.Name())
			if kind == "" {
				continue
			}
			plan := p.PlanNode(perm)
			_, load, mappable := o.place(kind, hash, perm)
			for _, w := range cfg.WayLimits {
				want := mappable && load <= w
				if got := plan.RepairableUnder(w); got != want {
					errs = append(errs, fmt.Errorf("oracle: node %d, %s at %d ways: planner says %v, oracle %v (max load %d, mappable %v)",
						node, p.Name(), w, got, want, load, mappable))
				}
			}
		}
	}
	return errs, checked
}

// oracleKind classifies a planner the oracle can check.
func oracleKind(name string) (kind string, hash bool) {
	switch name {
	case "RelaxFault":
		return "relaxfault", false
	case "FreeFault+hash":
		return "freefault", true
	case "FreeFault":
		return "freefault", false
	}
	return "", false
}

// oracle places repair lines without the repair package: it enumerates
// each fault's cachelines with Extent.ForEachLine, maps them with the
// public addrmap placement (RFIndex for RelaxFault, Encode + CacheIndex for
// FreeFault) into plain maps, and derives the per-set load.
type oracle struct {
	m          *addrmap.Mapper
	sets, ways int
}

// newOracle builds the oracle for the performance model's LLC (8 MiB,
// 16 ways), the cache the repair planners are sized against.
func newOracle(g dram.Geometry) (*oracle, error) {
	mc := perf.DefaultMemConfig()
	m, err := addrmap.New(g, mc.LLCSets)
	if err != nil {
		return nil, err
	}
	return &oracle{m: m, sets: mc.LLCSets, ways: mc.LLCWays}, nil
}

type oracleLine struct {
	set int
	tag uint64
}

// place returns the node's distinct repair lines, the largest number of
// them in any one set, and whether every fault fits in the LLC at all (a
// fault needing more lines than the whole LLC holds is unrepairable).
func (o *oracle) place(kind string, hash bool, faults []*fault.Fault) (lines, maxLoad int, mappable bool) {
	g := o.m.Geometry()
	cols := g.ColumnsPerBlk
	if kind == "relaxfault" {
		cols *= addrmap.SubBlocksPerLine
	}
	seen := map[oracleLine]bool{}
	load := map[int]int{}
	mappable = true
	for _, f := range faults {
		ranks := []int{f.Dev.Rank}
		if f.MirrorRanks {
			ranks = ranks[:0]
			for r := 0; r < g.DIMMsPerChan; r++ {
				ranks = append(ranks, r)
			}
		}
		var need int64
		for _, e := range f.Extents {
			need += e.LineCount(g, cols)
		}
		if need*int64(len(ranks)) > int64(o.sets*o.ways) {
			mappable = false
			continue
		}
		for _, rank := range ranks {
			for _, e := range f.Extents {
				e.ForEachLine(g, cols, func(bank, row, cg int) bool {
					var l oracleLine
					if kind == "relaxfault" {
						t := o.m.RFIndex(addrmap.RFKey{Channel: f.Dev.Channel, Rank: rank, Device: f.Dev.Device, Bank: bank, Row: row, CbHi: cg})
						l = oracleLine{t.Set, t.Tag}
					} else {
						l.set, l.tag = o.m.CacheIndex(o.m.Encode(dram.Location{Channel: f.Dev.Channel, Rank: rank, Bank: bank, Row: row, ColBlock: cg}), hash)
					}
					if !seen[l] {
						seen[l] = true
						load[l.set]++
						if load[l.set] > maxLoad {
							maxLoad = load[l.set]
						}
					}
					return true
				})
			}
		}
	}
	return len(seen), maxLoad, mappable
}

func (coverageWorkload) layers(e *env, out *roundOut, tr *runtrace.Recorder, vals map[string]float64) error {
	return mcLayers(e, out, tr, vals)
}
