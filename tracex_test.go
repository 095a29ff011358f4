package tracex

import (
	"context"
	"math"
	"testing"
)

// fastCollect keeps test-time simulation modest while staying above the
// steady-state warm-up needs of the multi-megabyte random regions.
var fastCollect = CollectOptions{Sampling: FixedSampling(200_000, 1_000_000)}

// testEngine is the Engine the package's tests share, so a profile or
// signature one test collects is a memory hit for the next. Tests that
// assert on an engine's own counters or lifecycle build their own.
var testEngine = NewEngine()

func TestLoadersAndLists(t *testing.T) {
	if len(Apps()) != 5 || len(Machines()) != 7 {
		t.Fatalf("Apps=%v Machines=%v", Apps(), Machines())
	}
	for _, name := range Apps() {
		if _, err := LoadApp(name); err != nil {
			t.Errorf("LoadApp(%s): %v", name, err)
		}
	}
	for _, name := range Machines() {
		if _, err := LoadMachine(name); err != nil {
			t.Errorf("LoadMachine(%s): %v", name, err)
		}
	}
	if _, err := LoadApp("x"); err == nil {
		t.Error("unknown app accepted")
	}
	if _, err := LoadMachine("x"); err == nil {
		t.Error("unknown machine accepted")
	}
}

func TestBuildProfile(t *testing.T) {
	cfg, _ := LoadMachine("opteron2")
	prof, err := testEngine.Profile(context.Background(), cfg)
	if err != nil {
		t.Fatalf("BuildProfile: %v", err)
	}
	if err := prof.Validate(); err != nil {
		t.Fatalf("profile invalid: %v", err)
	}
}

// TestTableIPipeline runs the paper's headline experiment end to end at a
// reduced scale (stencil3d at 512 cores extrapolated from 64/128/256):
// the prediction made from the extrapolated trace must closely agree with
// the prediction made from the collected trace, and both must be within a
// sane band of the detailed-simulation "measured" runtime.
func TestTableIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline in -short mode")
	}
	app, err := LoadApp("stencil3d")
	if err != nil {
		t.Fatal(err)
	}
	target, _ := LoadMachine("bluewaters")
	prof, err := testEngine.Profile(context.Background(), target)
	if err != nil {
		t.Fatal(err)
	}
	inputs, err := testEngine.CollectInputs(context.Background(), app, []int{64, 128, 256}, target, fastCollect)
	if err != nil {
		t.Fatal(err)
	}
	res, err := testEngine.Extrapolate(context.Background(), inputs, 512, ExtrapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	collected, err := testEngine.CollectSignature(context.Background(), app, 512, target, fastCollect)
	if err != nil {
		t.Fatal(err)
	}
	predExtrap, err := testEngine.Predict(context.Background(),
		PredictRequest{Signature: res.Signature, Profile: prof, App: app})
	if err != nil {
		t.Fatalf("Predict(extrapolated): %v", err)
	}
	predColl, err := testEngine.Predict(context.Background(),
		PredictRequest{Signature: collected, Profile: prof, App: app})
	if err != nil {
		t.Fatalf("Predict(collected): %v", err)
	}
	measured, err := testEngine.Measure(context.Background(), app, 512, target, fastCollect)
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	t.Logf("extrapolated prediction: %.3f s", predExtrap.Runtime)
	t.Logf("collected prediction:    %.3f s", predColl.Runtime)
	t.Logf("measured (detailed sim): %.3f s", measured.Runtime)
	if predExtrap.Runtime <= 0 || predColl.Runtime <= 0 || measured.Runtime <= 0 {
		t.Fatal("non-positive runtimes")
	}
	// The paper's core result: the extrapolated trace predicts what the
	// collected trace predicts.
	if d := math.Abs(predExtrap.Runtime-predColl.Runtime) / predColl.Runtime; d > 0.05 {
		t.Errorf("extrapolated vs collected predictions differ by %.1f%%", d*100)
	}
	// Both estimators agree with the detailed simulation to first order.
	if d := math.Abs(predColl.Runtime-measured.Runtime) / measured.Runtime; d > 0.25 {
		t.Errorf("collected prediction off measured by %.1f%%", d*100)
	}
}

func TestPredictValidation(t *testing.T) {
	app, _ := LoadApp("stencil3d")
	target, _ := LoadMachine("bluewaters")
	other, _ := LoadMachine("kraken")
	prof, err := testEngine.Profile(context.Background(), other)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := testEngine.CollectSignature(context.Background(), app, 64, target, CollectOptions{Sampling: FixedSampling(20_000, 50_000)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := testEngine.Predict(context.Background(),
		PredictRequest{Signature: sig, Profile: prof, App: app}); err == nil {
		t.Error("machine mismatch accepted")
	}
}

func TestMeasureDeterministic(t *testing.T) {
	app, _ := LoadApp("stencil3d")
	target, _ := LoadMachine("bluewaters")
	opt := CollectOptions{Sampling: FixedSampling(50_000, 100_000)}
	a, err := testEngine.Measure(context.Background(), app, 64, target, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := testEngine.Measure(context.Background(), app, 64, target, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Runtime != b.Runtime {
		t.Errorf("Measure not deterministic: %g vs %g", a.Runtime, b.Runtime)
	}
}
