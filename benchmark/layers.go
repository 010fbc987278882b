package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"time"

	cstore "relaxfault/internal/campaign/store"
	"relaxfault/internal/fault"
	"relaxfault/internal/relsim"
	"relaxfault/internal/repair"
	"relaxfault/internal/runtrace"
	"relaxfault/internal/stats"
)

// kernelSection is one Monte Carlo section a round computed: its lowered
// configuration (exactly one of cov and rel is set) and the chunk range
// [chunkLo, chunkHi) that executed rather than resumed.
type kernelSection struct {
	cov              *relsim.CoverageConfig
	rel              *relsim.Config
	chunkLo, chunkHi int
}

// plannerKey maps a planner's display name to its metric key.
func plannerKey(name string) string {
	switch {
	case name == "PPR":
		return "ppr"
	case strings.HasPrefix(name, "FreeFault"):
		return "freefault"
	case strings.HasPrefix(name, "RelaxFault"):
		return "relaxfault"
	}
	return ""
}

// spanTotal sums the durations of the recorder's spans whose name has the
// prefix, returning their count and seconds.
func spanTotal(tr *runtrace.Recorder, prefix string) (int, float64) {
	n, s := 0, 0.0
	for _, sp := range tr.Spans() {
		if strings.HasPrefix(sp.Name, prefix) {
			n++
			s += sp.Seconds()
		}
	}
	return n, s
}

// planTally accumulates one planner's per-node planning calls.
type planTally struct {
	us                  []float64
	seconds             float64
	attempted, repaired int
}

// mcLayers measures the fault, repair and relsim layers of the round's
// computed sections from outside the program: every computed chunk is
// replayed through the relsim replayers (the kernel), and every trial's
// node is sampled and planned again through the fault and repair packages
// with each call timed. Coverage plans whole nodes with PlanInto and counts
// a node repairable under the study's largest way limit; reliability
// plans faults in arrival order with TryRepair and counts repaired faults.
//
// The self-times partition the traced round's passes: sample + plan +
// analysis + driver is the section time, and the passes' time outside any
// section belongs to the scenario and campaign layers.
func mcLayers(e *env, out *roundOut, tr *runtrace.Recorder, vals map[string]float64) error {
	var kernel float64
	var sampleNs []float64
	var nodes, faults float64
	plans := map[string]*planTally{}
	tally := func(name string) *planTally {
		k := plannerKey(name)
		if plans[k] == nil {
			plans[k] = &planTally{}
		}
		return plans[k]
	}
	for _, ks := range out.kernel {
		var rp relsim.Replayer
		var err error
		if ks.cov != nil {
			rp, err = relsim.NewCoverageReplayer(*ks.cov)
		} else {
			rp, err = relsim.NewRunReplayer(*ks.rel)
		}
		if err != nil {
			return err
		}
		t0 := time.Now()
		var lo, hi int
		for ci := ks.chunkLo; ci < ks.chunkHi; ci++ {
			_, clo, chi, err := rp.ReplayChunk(ci)
			if err != nil {
				return err
			}
			if ci == ks.chunkLo {
				lo = clo
			}
			hi = chi
		}
		kernel += since(t0)

		var model *fault.Model
		if ks.cov != nil {
			model, err = fault.NewModel(ks.cov.Model)
		} else {
			model, err = fault.NewModel(ks.rel.Model)
		}
		if err != nil {
			return err
		}
		seed := ks.seed()
		fk := stats.NewRNG(seed).Forker()
		boost := ks.boost()
		var rng stats.RNG
		var sc fault.SampleScratch
		var perm []*fault.Fault
		var covPlans []*repair.Plan
		var inc repair.Incremental
		var state repair.NodeState
		if ks.cov != nil {
			for range ks.cov.Planners {
				covPlans = append(covPlans, &repair.Plan{})
			}
		} else if ks.rel.Planner != nil {
			inc = ks.rel.Planner.(repair.Incremental)
			state = inc.NewState()
		}
		for i := lo; i < hi; i++ {
			t0 := time.Now()
			fk.Substream(uint64(i), &rng)
			var nf fault.NodeFaults
			if boost > 0 {
				nf, _ = model.SampleNodeBiased(&rng, &sc, boost)
			} else {
				nf = model.SampleNodeScratch(&rng, &sc)
			}
			sampleNs = append(sampleNs, float64(time.Since(t0).Nanoseconds()))
			perm = nf.PermanentFaultsInto(perm)
			nodes++
			faults += float64(len(perm))
			if len(perm) == 0 {
				continue
			}
			switch {
			case ks.cov != nil:
				maxWay := ks.cov.WayLimits[len(ks.cov.WayLimits)-1]
				for pi, p := range ks.cov.Planners {
					t := tally(p.Name())
					t1 := time.Now()
					plan := repair.PlanInto(p, covPlans[pi], perm)
					d := since(t1)
					t.us = append(t.us, d*1e6)
					t.seconds += d
					t.attempted++
					if plan.RepairableUnder(maxWay) {
						t.repaired++
					}
				}
			case inc != nil:
				t := tally(ks.rel.Planner.Name())
				t1 := time.Now()
				state.Reset()
				for _, f := range perm {
					t.attempted++
					if inc.TryRepair(state, f, ks.rel.WayLimit) {
						t.repaired++
					}
				}
				d := since(t1)
				t.us = append(t.us, d*1e6)
				t.seconds += d
			}
		}
	}

	var sampleS float64
	for _, ns := range sampleNs {
		sampleS += ns / 1e9
	}
	vals["fault.sample_s"] = sampleS
	vals["fault.sample_ns_per_node"] = median(sampleNs)
	vals["fault.sample_nodes"] = float64(len(sampleNs))
	if nodes > 0 {
		vals["fault.faults_per_node"] = faults / nodes
	}
	planS := 0.0
	for _, k := range plannerKeys {
		t := plans[k]
		if t == nil {
			continue
		}
		planS += t.seconds
		vals["repair."+k+".plan_s"] = t.seconds
		vals["repair."+k+".plan_us_per_node"] = median(t.us)
		vals["repair."+k+".plan_nodes"] = float64(len(t.us))
		if t.attempted > 0 {
			vals["repair."+k+".repairable_ratio"] = float64(t.repaired) / float64(t.attempted)
		}
	}
	_, covSec := spanTotal(tr, "section:coverage")
	_, relSec := spanTotal(tr, "section:reliability")
	sections := covSec + relSec
	vals["relsim.kernel_s"] = kernel
	vals["relsim.analysis_s"] = kernel - sampleS - planS
	vals["relsim.driver_s"] = sections - kernel
	// Reliability runs count trials; coverage studies count sampled nodes.
	vals["relsim.trials"] = float64(out.counters["relsim.trials_done"] + out.counters["relsim.coverage.nodes_sampled"])
	vals["relsim.trials_saved"] = float64(out.counters["relsim.estimator.trials_saved"])

	e.logf("fault: sample %s", callStats(sampleNs, "ns"))
	for _, k := range plannerKeys {
		if t := plans[k]; t != nil {
			e.logf("repair.%s: plan %s, repairable %d/%d", k, callStats(t.us, "us"), t.repaired, t.attempted)
		}
	}
	return nil
}

func (ks kernelSection) seed() uint64 {
	if ks.cov != nil {
		return ks.cov.Seed
	}
	return ks.rel.Seed
}

// boost returns the importance-sampling arrival boost of the section's
// estimator (0 for the naive sampler).
func (ks kernelSection) boost() float64 {
	st := ks.rel
	if st == nil || st.Stats == nil || st.Stats.Estimator != relsim.EstimatorImportance {
		return 0
	}
	if st.Stats.Boost > 0 {
		return st.Stats.Boost
	}
	return relsim.DefaultBoost
}

// storeLayers reads the harness, journal and campaign layers of a keyed
// round from the program's own spans and counters.
func storeLayers(out *roundOut, tr *runtrace.Recorder, vals map[string]float64) error {
	_, appendS := spanTotal(tr, "journal.append")
	flushes, flushS := spanTotal(tr, "checkpoint.flush")
	vals["journal.appends"] = float64(out.counters["journal.records"])
	vals["journal.append_s"] = appendS
	vals["checkpoint.flushes"] = float64(flushes)
	vals["checkpoint.flush_s"] = flushS
	var bytes int64
	err := filepath.WalkDir(out.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && d.Name() == cstore.CheckpointFile {
			info, err := d.Info()
			if err != nil {
				return err
			}
			bytes += info.Size()
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("sizing checkpoints: %w", err)
	}
	vals["checkpoint.bytes"] = float64(bytes)
	vals["campaign.compute_s"] = out.passes["compute"]
	vals["campaign.hit_s"] = out.passes["hit"]
	vals["campaign.extend_s"] = out.passes["extend"]
	vals["campaign.hits"] = float64(out.counters["campaign.hits"])
	vals["campaign.chunks_reused"] = float64(out.counters["campaign.chunks_reused"])
	return nil
}
