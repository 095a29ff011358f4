package extrap

import (
	"context"

	"math"
	"testing"

	"tracex/internal/machine"
	"tracex/internal/pebil"
	"tracex/internal/stats"
	"tracex/internal/synthapp"
	"tracex/internal/trace"
)

// synthSignature builds a hand-crafted signature at core count p whose
// single block's elements follow known canonical laws.
func synthSignature(p int) *trace.Signature {
	x := float64(p)
	fv := trace.FeatureVector{
		FPOps:           2e9 + 1e6*x,           // linear
		FPAdd:           1e9 + 5e5*x,           // linear
		FPMul:           1e9 + 5e5*x,           // linear
		FPDivSqrt:       0,                     // constant zero
		MemOps:          1e9 + 4e8*math.Log(x), // logarithmic
		Loads:           0.7 * (1e9 + 4e8*math.Log(x)),
		Stores:          0.3 * (1e9 + 4e8*math.Log(x)),
		BytesPerRef:     8,                         // constant
		WorkingSetBytes: 3.2e7 * math.Exp(-x/4096), // exponential decay
		ILP:             2.5,                       // constant
		HitRates:        []float64{0.875, 0.9 + 0.05*x/8192, math.Min(1, 0.9+0.1*x/8192)},
	}
	tr := trace.Trace{
		App: "synth", CoreCount: p, Rank: 0, Machine: "bluewaters", Levels: 3,
		Blocks: []trace.Block{{ID: 7, Func: "kern", File: "k.c", Line: 1, FV: fv}},
	}
	return &trace.Signature{App: "synth", CoreCount: p, Machine: "bluewaters", Traces: []trace.Trace{tr}}
}

func TestExtrapolateRecoversKnownLaws(t *testing.T) {
	inputs := []*trace.Signature{synthSignature(1024), synthSignature(2048), synthSignature(4096)}
	res, err := Extrapolate(context.Background(), inputs, 8192, Options{})
	if err != nil {
		t.Fatalf("Extrapolate: %v", err)
	}
	want := synthSignature(8192).Traces[0].Blocks[0].FV
	got := res.Signature.Traces[0].Blocks[0].FV
	checks := []struct {
		name      string
		got, want float64
		tol       float64
	}{
		{"FPOps", got.FPOps, want.FPOps, 1e-6},
		{"MemOps", got.MemOps, want.MemOps, 1e-6},
		{"BytesPerRef", got.BytesPerRef, want.BytesPerRef, 1e-9},
		{"WorkingSet", got.WorkingSetBytes, want.WorkingSetBytes, 1e-6},
		{"ILP", got.ILP, want.ILP, 1e-9},
		{"HitRateL1", got.HitRates[0], want.HitRates[0], 1e-9},
		{"HitRateL2", got.HitRates[1], want.HitRates[1], 1e-6},
	}
	for _, c := range checks {
		if stats.AbsRelErr(c.got, c.want) > c.tol {
			t.Errorf("%s = %g, want %g", c.name, c.got, c.want)
		}
	}
	if res.Signature.CoreCount != 8192 {
		t.Errorf("core count = %d", res.Signature.CoreCount)
	}
}

func TestExtrapolateSelectsExpectedForms(t *testing.T) {
	inputs := []*trace.Signature{synthSignature(1024), synthSignature(2048), synthSignature(4096)}
	res, err := Extrapolate(context.Background(), inputs, 8192, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fits := res.FitsFor(7)
	expect := map[string]string{
		"bytes_per_ref":     "constant",
		"ilp":               "constant",
		"hit_rate_L1":       "constant",
		"mem_ops":           "logarithmic",
		"working_set_bytes": "exponential",
	}
	for el, form := range expect {
		f, ok := fits[el]
		if !ok {
			t.Fatalf("no fit recorded for %s", el)
		}
		if f.Form != form {
			t.Errorf("%s selected %s, want %s", el, f.Form, form)
		}
	}
	// Linear series: with three exact points both linear and log fit well,
	// but linear must win outright on exact linear data.
	if f := fits["fp_ops"]; f.Form != "linear" {
		t.Errorf("fp_ops selected %s, want linear", f.Form)
	}
}

func TestExtrapolateValidation(t *testing.T) {
	a, b, c := synthSignature(1024), synthSignature(2048), synthSignature(4096)
	if _, err := Extrapolate(context.Background(), []*trace.Signature{a, b}, 8192, Options{}); err == nil {
		t.Error("two inputs accepted with default MinInputs=3")
	}
	if _, err := Extrapolate(context.Background(), []*trace.Signature{a, b, c}, 4096, Options{}); err == nil {
		t.Error("target equal to largest input accepted")
	}
	if _, err := Extrapolate(context.Background(), []*trace.Signature{a, b, b}, 8192, Options{}); err == nil {
		t.Error("duplicate core counts accepted")
	}
	other := synthSignature(4096)
	other.App = "different"
	other.Traces[0].App = "different"
	if _, err := Extrapolate(context.Background(), []*trace.Signature{a, b, other}, 8192, Options{}); err == nil {
		t.Error("mixed applications accepted")
	}
	// Two inputs are fine when MinInputs permits.
	if _, err := Extrapolate(context.Background(), []*trace.Signature{a, b}, 8192, Options{MinInputs: 2}); err != nil {
		t.Errorf("MinInputs=2: %v", err)
	}
}

func TestExtrapolateSkipsPartialBlocks(t *testing.T) {
	a, b, c := synthSignature(1024), synthSignature(2048), synthSignature(4096)
	// Add a block that exists only at the first two counts.
	extra := a.Traces[0].Blocks[0]
	extra.ID = 99
	a.Traces[0].Blocks = append(a.Traces[0].Blocks, extra)
	b.Traces[0].Blocks = append(b.Traces[0].Blocks, extra)
	res, err := Extrapolate(context.Background(), []*trace.Signature{a, b, c}, 8192, Options{})
	if err != nil {
		t.Fatalf("Extrapolate: %v", err)
	}
	if len(res.SkippedBlocks) != 1 || res.SkippedBlocks[0] != 99 {
		t.Errorf("SkippedBlocks = %v, want [99]", res.SkippedBlocks)
	}
	if len(res.Signature.Traces[0].Blocks) != 1 {
		t.Errorf("extrapolated %d blocks, want 1", len(res.Signature.Traces[0].Blocks))
	}
}

func TestExtrapolateClampsHitRates(t *testing.T) {
	// A hit-rate series rising linearly would exceed 1 at the target;
	// the constraint clamps it and keeps monotonicity.
	mk := func(p int) *trace.Signature {
		s := synthSignature(p)
		fv := &s.Traces[0].Blocks[0].FV
		fv.HitRates = []float64{0.3, 0.3, math.Min(1, 0.5+float64(p)/8192.0)}
		return s
	}
	res, err := Extrapolate(context.Background(), []*trace.Signature{mk(1024), mk(2048), mk(4096)}, 16384, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hr := res.Signature.Traces[0].Blocks[0].FV.HitRates
	if hr[2] > 1 {
		t.Errorf("hit rate %g exceeds 1", hr[2])
	}
	for i := 1; i < len(hr); i++ {
		if hr[i] < hr[i-1] {
			t.Errorf("hit rates not monotone: %v", hr)
		}
	}
}

func TestEnforceConsistencyRepairs(t *testing.T) {
	levels := 2
	vals := make([]float64, trace.NumScalarElements+levels)
	vals[0] = 100                          // fp ops
	vals[1], vals[2], vals[3] = 80, 60, 10 // composition sums to 150 > 100
	vals[4] = 1000                         // mem ops
	vals[5], vals[6] = 900, 400            // loads+stores = 1300 > 1000
	vals[trace.NumScalarElements] = 0.9
	vals[trace.NumScalarElements+1] = 0.8 // non-monotone
	enforceConsistency(vals, levels)
	if sum := vals[1] + vals[2] + vals[3]; sum > vals[0]+1e-9 {
		t.Errorf("FP composition %g still exceeds %g", sum, vals[0])
	}
	if sum := vals[5] + vals[6]; sum > vals[4]+1e-9 {
		t.Errorf("loads+stores %g still exceed %g", sum, vals[4])
	}
	if vals[trace.NumScalarElements+1] < vals[trace.NumScalarElements] {
		t.Error("hit rates still non-monotone")
	}
}

func TestCompareAndInfluence(t *testing.T) {
	col := synthSignature(8192).Traces[0]
	ext := synthSignature(8192).Traces[0]
	ext.Blocks[0].FV.MemOps *= 1.1 // 10 % error
	errs, err := Compare(&ext, &col)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if len(errs) != trace.NumScalarElements+3 {
		t.Fatalf("got %d element errors", len(errs))
	}
	var memErr *ElementError
	for i := range errs {
		if errs[i].Element == "mem_ops" {
			memErr = &errs[i]
		}
	}
	if memErr == nil || math.Abs(memErr.AbsRelErr-0.1) > 1e-9 {
		t.Errorf("mem_ops error = %+v", memErr)
	}
	if !memErr.Influential {
		t.Error("single block should be influential")
	}
	if got := MaxInfluentialError(errs); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("MaxInfluentialError = %g", got)
	}
	if got := len(InfluentialErrors(errs)); got != len(errs) {
		t.Errorf("InfluentialErrors kept %d of %d", got, len(errs))
	}
}

func TestCompareMismatches(t *testing.T) {
	a := synthSignature(8192).Traces[0]
	b := synthSignature(4096).Traces[0]
	if _, err := Compare(&a, &b); err == nil {
		t.Error("core-count mismatch accepted")
	}
	c := synthSignature(8192).Traces[0]
	c.Levels = 2
	c.Blocks[0].FV.HitRates = c.Blocks[0].FV.HitRates[:2]
	if _, err := Compare(&a, &c); err == nil {
		t.Error("level mismatch accepted")
	}
}

// TestEndToEndInfluentialElementError reproduces the paper's Section IV
// claim on the full pipeline: collect signatures at three small counts with
// the instrumentation emulator, extrapolate to a larger count, collect the
// ground truth there, and verify that every element of every influential
// block lands within 20 % absolute relative error.
func TestEndToEndInfluentialElementError(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline in -short mode")
	}
	opt := pebil.CollectorConfig{Sampling: pebil.FixedSampling(200_000, 1_000_000)}
	col := pebil.NewCollector(0)
	defer col.Close()
	bw := machine.BlueWatersP1()
	cases := []struct {
		app    *synthapp.App
		counts []int
		target int
	}{
		{synthapp.SPECFEM3D(), []int{96, 384, 1536}, 6144},
		{synthapp.UH3D(), []int{1024, 2048, 4096}, 8192},
	}
	for _, c := range cases {
		var inputs []*trace.Signature
		for _, p := range c.counts {
			sig, err := col.Collect(context.Background(), c.app, p, bw, []int{0}, opt)
			if err != nil {
				t.Fatalf("%s collect(%d): %v", c.app.Name(), p, err)
			}
			inputs = append(inputs, sig)
		}
		res, err := Extrapolate(context.Background(), inputs, c.target, Options{})
		if err != nil {
			t.Fatalf("%s extrapolate: %v", c.app.Name(), err)
		}
		truth, err := col.Collect(context.Background(), c.app, c.target, bw, []int{0}, opt)
		if err != nil {
			t.Fatalf("%s collect(%d): %v", c.app.Name(), c.target, err)
		}
		errs, err := Compare(&res.Signature.Traces[0], &truth.Traces[0])
		if err != nil {
			t.Fatalf("%s compare: %v", c.app.Name(), err)
		}
		if got := MaxInfluentialError(errs); got >= 0.20 {
			worst := ElementError{}
			for _, e := range InfluentialErrors(errs) {
				if e.AbsRelErr > worst.AbsRelErr {
					worst = e
				}
			}
			t.Errorf("%s: max influential element error %.1f%% (worst: %s/%s %g vs %g)",
				c.app.Name(), got*100, worst.Func, worst.Element, worst.Extrapolated, worst.Collected)
		}
	}
}

// TestExtrapolateTwoInputsLeavesQuadraticOut: on two inputs, which
// MinInputs 2 admits, the quadratic is not applicable, so every element's
// fit table over the extended forms leaves it out instead of failing the
// extrapolation.
func TestExtrapolateTwoInputsLeavesQuadraticOut(t *testing.T) {
	inputs := []*trace.Signature{synthSignature(1024), synthSignature(2048)}
	for _, intervals := range []bool{false, true} {
		res, err := Extrapolate(context.Background(), inputs, 8192,
			Options{MinInputs: 2, Forms: stats.ExtendedForms(), Intervals: intervals})
		if err != nil {
			t.Fatalf("intervals %t: %v", intervals, err)
		}
		if len(res.Fits) == 0 {
			t.Fatalf("intervals %t: no element fits", intervals)
		}
		for _, f := range res.Fits {
			if _, weighted := f.Weights["quadratic"]; f.Form == "quadratic" || weighted {
				t.Errorf("intervals %t: %s picked or weighted the quadratic on two points", intervals, f.Element)
			}
		}
	}
}
