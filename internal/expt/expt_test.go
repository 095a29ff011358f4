package expt

import (
	"math"
	"testing"

	"tracex/internal/pebil"
)

// quickCfg trades a little steady-state fidelity for test speed; shape
// assertions below are tolerant of the reduced sampling.
var quickCfg = Config{Collect: pebil.CollectorConfig{Sampling: pebil.FixedSampling(100_000, 800_000)}}

func TestPaperSpecs(t *testing.T) {
	specs := PaperSpecs()
	if len(specs) != 2 {
		t.Fatalf("got %d specs", len(specs))
	}
	if specs[0].App != "specfem3d" || specs[0].TargetCount != 6144 {
		t.Errorf("spec 0 = %+v", specs[0])
	}
	if specs[1].App != "uh3d" || specs[1].TargetCount != 8192 {
		t.Errorf("spec 1 = %+v", specs[1])
	}
	for _, s := range specs {
		if len(s.InputCounts) != 3 {
			t.Errorf("%s has %d input counts, paper uses 3", s.App, len(s.InputCounts))
		}
		for _, p := range s.InputCounts {
			if p >= s.TargetCount {
				t.Errorf("%s input %d not below target %d", s.App, p, s.TargetCount)
			}
		}
	}
	if TargetMachine().Name != "bluewaters" {
		t.Errorf("target machine = %s", TargetMachine().Name)
	}
}

func TestTable1ShapeCriteria(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale experiment in -short mode")
	}
	rows, err := Table1(quickCfg)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	byApp := map[string]map[string]Table1Row{}
	for _, r := range rows {
		if byApp[r.App] == nil {
			byApp[r.App] = map[string]Table1Row{}
		}
		byApp[r.App][r.TraceType] = r
		if r.Predicted <= 0 || r.Measured <= 0 {
			t.Errorf("non-positive runtime in %+v", r)
		}
	}
	for app, kinds := range byApp {
		e, c := kinds["Extrap."], kinds["Coll."]
		// Core result: extrapolated and collected traces give near-equal
		// predictions (paper: identical to the second).
		if d := math.Abs(e.Predicted-c.Predicted) / c.Predicted; d > 0.05 {
			t.Errorf("%s: extrapolated vs collected predictions differ by %.1f%%", app, 100*d)
		}
		// Both within the paper's error band (generous slack for reduced
		// sampling).
		if e.PctError > 10 || c.PctError > 10 {
			t.Errorf("%s: errors %.1f%% / %.1f%% exceed band", app, e.PctError, c.PctError)
		}
	}
}

func TestTable2ShapeCriteria(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale experiment in -short mode")
	}
	rows, err := Table2(Config{Collect: pebil.CollectorConfig{Sampling: pebil.FixedSampling(300_000, 2_000_000)}})
	if err != nil {
		t.Fatalf("Table2: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, r := range rows {
		if r.L1 > r.L2 || r.L2 > r.L3 {
			t.Errorf("row %d: cumulative rates not ordered: %+v", i, r)
		}
		if i == 0 {
			continue
		}
		if math.Abs(r.L1-rows[0].L1) > 2 {
			t.Errorf("L1 not flat: %v vs %v", r.L1, rows[0].L1)
		}
		if r.L3 < rows[i-1].L3-0.5 {
			t.Errorf("L3 not rising at row %d: %v", i, rows)
		}
	}
	if rise := rows[3].L3 - rows[0].L3; rise < 2 {
		t.Errorf("L3 rise %.1f pts, want the Table II drain-into-L3 signal", rise)
	}
}

func TestTable3ShapeCriteria(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale experiment in -short mode")
	}
	rows, err := Table3(quickCfg)
	if err != nil {
		t.Fatalf("Table3: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, r := range rows {
		if r.SystemB < 99 {
			t.Errorf("56KB system not resident: %+v", r)
		}
		if r.SystemA > 93 {
			t.Errorf("12KB system not thrashing: %+v", r)
		}
		if i > 0 && math.Abs(r.SystemA-rows[0].SystemA) > 2 {
			t.Errorf("System A rate varies with cores: %v", rows)
		}
	}
}

func TestFigure1Shape(t *testing.T) {
	rows, err := Figure1()
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	if len(rows) < 20 {
		t.Fatalf("only %d surface points", len(rows))
	}
	var min, max float64 = math.Inf(1), 0
	mixed := 0
	for _, r := range rows {
		if r.BandwidthGBs < min {
			min = r.BandwidthGBs
		}
		if r.BandwidthGBs > max {
			max = r.BandwidthGBs
		}
		if r.ResidentFraction > 0 {
			mixed++
		}
	}
	if max/min < 10 {
		t.Errorf("surface dynamic range %.1f×, want pronounced cache cliffs", max/min)
	}
	if mixed == 0 {
		t.Error("no mixed-locality probes on the surface")
	}
}

func TestFigure4SelectsLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale experiment in -short mode")
	}
	fs, err := Figure4(quickCfg)
	if err != nil {
		t.Fatalf("Figure4: %v", err)
	}
	if fs.Selected != "linear" {
		t.Errorf("selected %s, want linear", fs.Selected)
	}
	if len(fs.FitValues) != 4 {
		t.Errorf("got fits for %d forms, want all 4 canonical", len(fs.FitValues))
	}
	for i := 1; i < len(fs.Measured); i++ {
		if fs.Measured[i] <= fs.Measured[i-1] {
			t.Errorf("measured series not rising: %v", fs.Measured)
		}
	}
}

func TestFigure5SelectsLogarithmic(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale experiment in -short mode")
	}
	fs, err := Figure5(quickCfg)
	if err != nil {
		t.Fatalf("Figure5: %v", err)
	}
	if fs.Selected != "logarithmic" {
		t.Errorf("selected %s, want logarithmic", fs.Selected)
	}
}

func TestFigure3CoversAllElements(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale experiment in -short mode")
	}
	rows, err := Figure3(quickCfg)
	if err != nil {
		t.Fatalf("Figure3: %v", err)
	}
	if len(rows) != 14 { // 11 scalars + 3 hit rates on the 3-level target
		t.Fatalf("got %d element rows", len(rows))
	}
	for _, r := range rows {
		if len(r.Inputs) != 3 {
			t.Errorf("%s has %d input values", r.Element, len(r.Inputs))
		}
		if r.Form == "" {
			t.Errorf("%s has no selected form", r.Element)
		}
	}
}

func TestInfluentialElementErrorClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale experiment in -short mode")
	}
	rows, err := InfluentialElementError(quickCfg)
	if err != nil {
		t.Fatalf("InfluentialElementError: %v", err)
	}
	for _, r := range rows {
		if r.MaxError >= 0.20 {
			t.Errorf("%s: max influential error %.1f%% breaks the paper's <20%% claim (worst %s)",
				r.App, 100*r.MaxError, r.WorstElement)
		}
		if r.NumInfluent == 0 || r.NumInfluent > r.NumElements {
			t.Errorf("%s: influential count %d/%d implausible", r.App, r.NumInfluent, r.NumElements)
		}
	}
}

func TestFitSeriesUnknownInputs(t *testing.T) {
	if _, err := fitSeries("nope", "x", "mem_ops", []int{1, 2, 3}, quickCfg); err == nil {
		t.Error("unknown app accepted")
	}
	if _, err := fitSeries("uh3d", "field_update", "bogus_element", []int{1024}, quickCfg); err == nil {
		t.Error("unknown element accepted")
	}
	if _, err := fitSeries("uh3d", "no_such_block", "mem_ops", []int{1024}, quickCfg); err == nil {
		t.Error("unknown block accepted")
	}
}

func TestFormSetsLadder(t *testing.T) {
	sets := FormSets()
	order := FormSetOrder()
	if len(sets) != len(order) {
		t.Fatalf("sets %d vs order %d", len(sets), len(order))
	}
	prev := 0
	for _, name := range order {
		forms, ok := sets[name]
		if !ok {
			t.Fatalf("order entry %q missing from sets", name)
		}
		if len(forms) < prev {
			t.Errorf("ladder not non-decreasing at %q", name)
		}
		prev = len(forms)
	}
}
