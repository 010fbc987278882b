package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"

	"relaxfault/internal/campaign"
	cstore "relaxfault/internal/campaign/store"
	"relaxfault/internal/fault"
	"relaxfault/internal/harness"
	"relaxfault/internal/journal"
	"relaxfault/internal/relsim"
	"relaxfault/internal/runtrace"
	"relaxfault/internal/scenario"
	"relaxfault/internal/stats"
)

// relNodes is the per-system node count of the mechanism cells; with one
// replica each cell runs relNodes trials from scratch.
const relNodes = 8192

// sweepReplicas is the larger budget the extension pass sweeps to.
const sweepReplicas = "2"

// replayChunks is how many journaled chunks per campaign the deep check
// replays.
const replayChunks = 3

// faultMeanZ is the half-width, in standard errors, of the interval the
// mean injected permanent faults per node must fall in.
const faultMeanZ = 5

// reliabilityWorkload runs the Figure 12 mechanism cells at 10x FIT
// (no-repair, PPR, FreeFault and RelaxFault at 1 and 4 ways) and the
// importance-sampled, sequentially stopped rare-due cell as keyed
// campaigns into a fresh store: from scratch, again as verified cache
// hits, and as a sweep over the elastic budget.replicas axis.
type reliabilityWorkload struct{}

func (reliabilityWorkload) keyed() bool { return true }

func (reliabilityWorkload) scenarios(seed uint64) ([]*scenario.Scenario, error) {
	mech, err := scenario.Preset("fig12")
	if err != nil {
		return nil, err
	}
	cells := mech.Reliability.Cells
	mech.Reliability.Cells = cells[len(cells)/2:] // the 10x FIT half
	mech.Budget.Nodes = relNodes
	mech.Budget.Replicas = 1
	mech.Seed = &seed
	rare, err := scenario.Preset("rare-due")
	if err != nil {
		return nil, err
	}
	rare.Seed = &seed
	return []*scenario.Scenario{mech, rare}, nil
}

type reliabilityData struct {
	st *cstore.Store
	// scs and recs are the pass-1 scenarios and their campaign records;
	// permFaults and permTrials count the mechanism campaign's injected
	// permanent faults and its trials.
	scs            []*scenario.Scenario
	recs           []*harness.CampaignRecord
	permFaults     int64
	permTrials     int64
	verifiedChunks int
}

func (w reliabilityWorkload) round(e *env, out *roundOut, tr *runtrace.Recorder) error {
	scs, err := w.scenarios(out.seed)
	if err != nil {
		return err
	}
	dir, err := e.freshDir("store")
	if err != nil {
		return err
	}
	out.dir = dir
	st, err := cstore.Open(dir)
	if err != nil {
		return err
	}
	d := &reliabilityData{st: st, scs: scs}
	out.data = d
	ctx := context.Background()
	opts := campaign.Options{Workers: e.opts.workers, Trace: tr}
	runOne := func(sc *scenario.Scenario) (*scenario.Result, *harness.CampaignRecord) {
		out.ops++
		res, rec, err := campaign.RunStore(ctx, sc, st, opts)
		if err != nil {
			out.opFailed("campaign "+sc.Name, err)
			return nil, nil
		}
		return res, rec
	}

	// Pass 1: from scratch.
	var first []*scenario.Result
	trials0 := snapCounters()
	t0 := time.Now()
	for i, sc := range scs {
		c0 := snapCounters()
		res, rec := runOne(sc)
		if i == 0 {
			c := snapCounters().delta(c0)
			d.permFaults = c["relsim.faults.permanent"]
			d.permTrials = c["relsim.trials_done"]
		}
		first = append(first, res)
		d.recs = append(d.recs, rec)
	}
	out.passes["compute"] = since(t0)
	out.work = float64(snapCounters().delta(trials0)["relsim.trials_done"])
	out.workSecs = out.passes["compute"]

	// Pass 2: the same campaigns again, as verified cache hits.
	t0 = time.Now()
	var hits []*scenario.Result
	for _, sc := range scs {
		res, rec := runOne(sc)
		hits = append(hits, res)
		if rec != nil {
			d.verifiedChunks += rec.VerifiedChunks
			if rec.Source != harness.CampaignCacheHit {
				out.failf("reliability: %s second pass was %s, not a cache hit", sc.Name, rec.Source)
			}
		}
	}
	out.passes["hit"] = since(t0)

	// Pass 3: a sweep over the elastic replica axis at a larger budget.
	t0 = time.Now()
	points, err := scenario.Expand(scs[0], []scenario.SweepSet{{Path: "budget.replicas", Values: []string{sweepReplicas}}})
	if err != nil {
		return err
	}
	var extended []*scenario.Result
	var extRecs []*harness.CampaignRecord
	for _, sc := range points {
		res, rec := runOne(sc)
		extended = append(extended, res)
		extRecs = append(extRecs, rec)
	}
	out.passes["extend"] = since(t0)

	for i, res := range first {
		if res == nil || hits[i] == nil {
			continue
		}
		a, errA := json.Marshal(res.Reliability)
		b, errB := json.Marshal(hits[i].Reliability)
		if errA != nil || errB != nil || string(a) != string(b) {
			out.failf("reliability: %s cache-hit results differ from the from-scratch pass", scs[i].Name)
		}
	}
	for _, set := range [][]*scenario.Result{first, hits, extended} {
		for _, res := range set {
			if res != nil {
				checkReliability(out, res)
			}
		}
	}
	if res := first[1]; res != nil {
		checkStopped(out, scs[1], res)
	}
	var docs []any
	for _, set := range [][]*scenario.Result{first, hits, extended} {
		for _, res := range set {
			if res != nil {
				raw, _ := json.Marshal(res.Reliability) // plain float fields: cannot fail
				docs = append(docs, string(raw))
			}
		}
	}
	out.digest = digestOf(docs...)

	// The sections each pass computed, for the per-layer kernel replay.
	if err := addKernel(out, scs, d.recs, first); err != nil {
		return err
	}
	return addKernel(out, points, extRecs, extended)
}

// addKernel records the chunks each campaign computed (seeded chunks are
// a prefix of every section and are not replayed).
func addKernel(out *roundOut, scs []*scenario.Scenario, recs []*harness.CampaignRecord, results []*scenario.Result) error {
	for i, sc := range scs {
		if recs[i] == nil || results[i] == nil || recs[i].Source == harness.CampaignCacheHit {
			continue
		}
		low, err := sc.Lower()
		if err != nil {
			return err
		}
		reused := recs[i].ReusedChunks / len(low.Reliability)
		for c := range low.Reliability {
			cfg := low.Reliability[c]
			trials := cfg.TotalTrials()
			if est := results[i].Reliability[c].Estimator; est != nil {
				trials = int(est.Trials)
			}
			out.kernel = append(out.kernel, kernelSection{
				rel: &cfg, chunkLo: reused,
				chunkHi: (trials + relsim.RunChunkSize - 1) / relsim.RunChunkSize,
			})
		}
	}
	return nil
}

// checkReliability checks that every expectation is finite and
// non-negative and that no trial was skipped.
func checkReliability(out *roundOut, res *scenario.Result) {
	for i, r := range res.Reliability {
		for name, v := range map[string]float64{"DUEs": r.DUEs, "SDCs": r.SDCs, "replacements": r.Replacements, "faulty nodes": r.FaultyNodes} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				out.failf("reliability: %s cell %d: %s = %v", res.Scenario.Name, i, name, v)
			}
		}
		if r.SkippedTrials != 0 {
			out.failf("reliability: %s cell %d skipped %d trials", res.Scenario.Name, i, r.SkippedTrials)
		}
	}
}

// checkStopped checks the sequential stopping rule's contract: a cell that
// stopped reached its confidence target, and a cell that did not stop ran
// its whole trial budget.
func checkStopped(out *roundOut, sc *scenario.Scenario, res *scenario.Result) {
	target := sc.Statistics.TargetCI
	for i, r := range res.Reliability {
		est := r.Estimator
		switch {
		case est == nil:
			out.failf("reliability: %s cell %d has no estimator report", sc.Name, i)
		case !est.Stopped:
			if est.Trials != est.BudgetTrials {
				out.failf("reliability: %s cell %d ended at %d of %d trials without stopping", sc.Name, i, est.Trials, est.BudgetTrials)
			}
		case est.DUEHalfWidth > target || est.SDCHalfWidth > target:
			out.failf("reliability: %s cell %d stopped at half-widths DUE %v SDC %v, above target %v",
				sc.Name, i, est.DUEHalfWidth, est.SDCHalfWidth, target)
		}
	}
}

// deepCheck replays a sample of each campaign's journaled chunks and
// compares their digests and trial spans with the journal, and checks the
// mean injected permanent faults per node against the fault model's rate
// tables.
func (reliabilityWorkload) deepCheck(e *env, out *roundOut) []error {
	d, ok := out.data.(*reliabilityData)
	if !ok {
		return nil
	}
	var errs []error
	replayed := 0
	for i, sc := range d.scs {
		rec := d.recs[i]
		if rec == nil {
			continue
		}
		n, err := replayJournal(d.st, sc, rec)
		replayed += n
		if err != nil {
			errs = append(errs, err)
		}
	}
	e.logf("journal: %d chunk(s) replayed against their digests", replayed)
	if err := checkFaultMean(e, d); err != nil {
		errs = append(errs, err)
	}
	return errs
}

// replayJournal replays replayChunks evenly spaced chunk records of the
// campaign's journal through the relsim replayers.
func replayJournal(st *cstore.Store, sc *scenario.Scenario, rec *harness.CampaignRecord) (int, error) {
	j, err := journal.Load(filepath.Join(st.Root(), rec.Entry, cstore.JournalFile))
	if err != nil {
		return 0, err
	}
	if !j.SealedComplete() {
		return 0, fmt.Errorf("journal: %s is not sealed complete", sc.Name)
	}
	low, err := sc.Lower()
	if err != nil {
		return 0, err
	}
	replayers := map[string]relsim.Replayer{}
	for _, cfg := range low.Reliability {
		rp, err := relsim.NewRunReplayer(cfg)
		if err != nil {
			return 0, err
		}
		replayers[rp.Section()] = rp
	}
	latest := j.LatestChunks()
	keys := make([]journal.ChunkKey, 0, len(latest))
	for k := range latest {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].Section != keys[b].Section {
			return keys[a].Section < keys[b].Section
		}
		return keys[a].Chunk < keys[b].Chunk
	})
	if len(keys) == 0 {
		return 0, fmt.Errorf("journal: %s has no chunk records", sc.Name)
	}
	n := 0
	for s := 0; s < replayChunks && s < len(keys); s++ {
		r := latest[keys[s*(len(keys)-1)/max(replayChunks-1, 1)]]
		rp := replayers[r.Section]
		if rp == nil {
			return n, fmt.Errorf("journal: %s: section %s matches no lowered cell", sc.Name, r.Section)
		}
		payload, lo, hi, err := rp.ReplayChunk(r.Chunk)
		if err != nil {
			return n, err
		}
		n++
		if got := journal.Digest(payload); got != r.Digest || lo != r.TrialLo || hi != r.TrialHi {
			return n, fmt.Errorf("journal: %s chunk %d replays to %s [%d,%d), journal says %s [%d,%d)",
				sc.Name, r.Chunk, got, lo, hi, r.Digest, r.TrialLo, r.TrialHi)
		}
	}
	return n, nil
}

// checkFaultMean compares the mechanism campaign's mean injected permanent
// faults per node (the relsim.faults.permanent counter over its trials)
// with the figure the rate table gives: permanent FIT x devices per node x
// horizon, scaled by the mean device multiplier the model's acceleration
// split implies. The interval's width comes from the per-node counts of
// the model's own sample of the same nodes.
func checkFaultMean(e *env, d *reliabilityData) error {
	if d.permTrials == 0 {
		return fmt.Errorf("fault mean: the mechanism campaign ran no trials")
	}
	low, err := d.scs[0].Lower()
	if err != nil {
		return err
	}
	cfg := low.Reliability[0]
	model, err := fault.NewModel(cfg.Model)
	if err != nil {
		return err
	}
	mc := cfg.Model
	a := mc.AccelFactor
	if a <= 0 {
		a = 1
	}
	pn, pd := mc.AccelNodeFrac, mc.AccelDIMMFrac
	mult := pn*a + (1-pn)*(pd*a+(1-pd)*model.AdjustedMultiplier())
	want := mult * float64(mc.Geometry.DevicesPerNode()) * fault.FITToRate(mc.Rates.TotalPermanent()) * mc.Hours

	// Every cell samples the same nodes (one seed, one fault model), so the
	// counter saw cells x nodes draws of relNodes distinct nodes.
	nodes := cfg.TotalTrials()
	root := stats.NewRNG(cfg.Seed)
	var sc fault.SampleScratch
	var rng stats.RNG
	var perm []*fault.Fault
	var m stats.MeanVar
	fk := root.Forker()
	for i := 0; i < nodes; i++ {
		fk.Substream(uint64(i), &rng)
		nf := model.SampleNodeScratch(&rng, &sc)
		perm = nf.PermanentFaultsInto(perm)
		m.Add(float64(len(perm)))
	}
	got := float64(d.permFaults) / float64(d.permTrials)
	se := m.StdErr()
	e.logf("fault mean: %.5f permanent faults per node injected, rate tables give %.5f (±%.5f at %d standard errors)",
		got, want, faultMeanZ*se, faultMeanZ)
	if math.Abs(got-want) > faultMeanZ*se {
		return fmt.Errorf("fault mean: %v permanent faults per node, rate tables give %v ± %v", got, want, faultMeanZ*se)
	}
	return nil
}

func (reliabilityWorkload) layers(e *env, out *roundOut, tr *runtrace.Recorder, vals map[string]float64) error {
	if err := mcLayers(e, out, tr, vals); err != nil {
		return err
	}
	if err := storeLayers(out, tr, vals); err != nil {
		return err
	}
	if d, ok := out.data.(*reliabilityData); ok {
		vals["campaign.chunks_verified"] = float64(d.verifiedChunks)
	}
	return nil
}
