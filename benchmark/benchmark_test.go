package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"testing"

	"relaxfault/internal/addrmap"
	"relaxfault/internal/dram"
	"relaxfault/internal/fault"
	"relaxfault/internal/perf"
	"relaxfault/internal/repair"
)

// TestOracleHandBuiltFaults pins the oracle's line counts on faults whose
// footprint is known by construction, and checks that the planners agree
// with it on line count, per-set load and every way-limit verdict.
func TestOracleHandBuiltFaults(t *testing.T) {
	g := dram.Default8GiBNode()
	o, err := newOracle(g)
	if err != nil {
		t.Fatal(err)
	}
	m, err := addrmap.New(g, perf.DefaultMemConfig().LLCSets)
	if err != nil {
		t.Fatal(err)
	}
	relax := repair.NewRelaxFault(m, o.ways)
	free := repair.NewFreeFault(m, o.ways, true)
	dev := dram.DeviceCoord{Channel: 1, Rank: 0, Device: 4}
	one := func(e fault.Extent) []*fault.Fault {
		return []*fault.Fault{{Dev: dev, Mode: fault.SingleBit, Extents: []fault.Extent{e}}}
	}
	relaxCols := g.ColumnsPerBlk * addrmap.SubBlocksPerLine
	cases := []struct {
		name       string
		faults     []*fault.Fault
		relaxLines int // -1: larger than the whole LLC
		freeLines  int
	}{
		{"cell", one(fault.Extent{BankLo: 3, BankHi: 3, Rows: fault.OneRow(100), ColLo: 17, ColHi: 17}), 1, 1},
		{"row", one(fault.Extent{BankLo: 2, BankHi: 2, Rows: fault.OneRow(200), ColLo: 0, ColHi: g.Columns - 1}),
			g.Columns / relaxCols, g.Columns / g.ColumnsPerBlk},
		{"column", one(fault.Extent{BankLo: 5, BankHi: 5, Rows: fault.AllRows(), ColLo: 9, ColHi: 9}), g.Rows, g.Rows},
		{"bank", one(fault.Extent{BankLo: 1, BankHi: 1, Rows: fault.AllRows(), ColLo: 0, ColHi: g.Columns - 1}), -1, -1},
	}
	for _, c := range cases {
		for _, p := range []struct {
			planner repair.Planner
			kind    string
			hash    bool
			want    int
		}{{relax, "relaxfault", false, c.relaxLines}, {free, "freefault", true, c.freeLines}} {
			lines, load, mappable := o.place(p.kind, p.hash, c.faults)
			if p.want < 0 {
				if mappable {
					t.Errorf("%s/%s: oracle maps a fault larger than the LLC", c.name, p.kind)
				}
			} else if !mappable || lines != p.want {
				t.Errorf("%s/%s: oracle places %d lines (mappable %v), want %d", c.name, p.kind, lines, mappable, p.want)
			}
			plan := p.planner.PlanNode(c.faults)
			if mappable && (plan.TotalLines != int64(lines) || plan.MaxWaysPerSet != load) {
				t.Errorf("%s/%s: planner %d lines, max load %d; oracle %d, %d", c.name, p.kind, plan.TotalLines, plan.MaxWaysPerSet, lines, load)
			}
			for _, w := range []int{1, 4, 16} {
				if got, want := plan.RepairableUnder(w), mappable && load <= w; got != want {
					t.Errorf("%s/%s at %d ways: planner %v, oracle %v", c.name, p.kind, w, got, want)
				}
			}
		}
	}
}

// TestOracleAgreesOnSampledNodes runs the coverage workload's oracle check
// on a few sampled faulty nodes.
func TestOracleAgreesOnSampledNodes(t *testing.T) {
	scs, err := coverageWorkload{}.scenarios(11)
	if err != nil {
		t.Fatal(err)
	}
	low, err := scs[0].Lower()
	if err != nil {
		t.Fatal(err)
	}
	errs, checked := oracleCheck(&low.Coverage[0], 40)
	if checked != 40 {
		t.Fatalf("checked %d faulty nodes, want 40", checked)
	}
	for _, err := range errs {
		t.Error(err)
	}
}

type benchmarkDoc struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestMetricNamesMatchBenchmarkJSON checks that every printed metric name
// is well formed and that the names, units and workloads match
// BENCHMARK.json one for one.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, defs []metricDef, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(defs) != len(got) {
			t.Errorf("%s: benchmark prints %d metrics, BENCHMARK.json lists %d", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if !name.MatchString(d.name) {
				t.Errorf("%s: metric name %q is not [A-Za-z0-9_.-]", kind, d.name)
			}
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: benchmark prints %s (%s), BENCHMARK.json lists %s (%s)", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, doc.EndToEnd)
	check("per_layer", perLayer, doc.PerLayer)
	names := workloadNames()
	if len(doc.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json lists %d workloads, benchmark has %d", len(doc.Workloads), len(names))
	}
	for i, w := range doc.Workloads {
		if w.Name != names[i] || workloads[w.Name] == nil {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, names[i])
		}
	}
}

func TestFlagsRefuseOversubscription(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "perf", "--workers", strconv.Itoa(runtime.NumCPU() + 1)},
		{"--workload", "perf", "--workers", "0"},
		{"--workload", "perf", "--trace", "2"},
		{"--workload", "perf", "--seconds", "0"},
		{"--seed", "3"},
	} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
	if code := run([]string{"--workload", "nope"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("unknown workload exits %d, want 2", code)
	}
}
