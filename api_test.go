package tracex

import (
	"context"
	"math"
	"path/filepath"
	"sync"
	"testing"

	"tracex/internal/store"
)

var apiSetup struct {
	once   sync.Once
	app    *App
	cfg    MachineConfig
	prof   *Profile
	inputs []*Signature
	err    error
}

// smallSetup collects a tiny stencil3d pipeline shared by the API tests
// (built once; tests must treat the returned values as read-only).
func smallSetup(t *testing.T) (*App, MachineConfig, *Profile, []*Signature) {
	t.Helper()
	apiSetup.once.Do(func() {
		apiSetup.app, apiSetup.err = LoadApp("stencil3d")
		if apiSetup.err != nil {
			return
		}
		apiSetup.cfg, apiSetup.err = LoadMachine("bluewaters")
		if apiSetup.err != nil {
			return
		}
		apiSetup.prof, apiSetup.err = testEngine.Profile(context.Background(), apiSetup.cfg)
		if apiSetup.err != nil {
			return
		}
		opt := CollectOptions{Sampling: FixedSampling(60_000, 150_000)}
		apiSetup.inputs, apiSetup.err = testEngine.CollectInputs(context.Background(), apiSetup.app, []int{64, 128, 256}, apiSetup.cfg, opt)
	})
	if apiSetup.err != nil {
		t.Fatal(apiSetup.err)
	}
	return apiSetup.app, apiSetup.cfg, apiSetup.prof, apiSetup.inputs
}

func TestFormsReexports(t *testing.T) {
	if got := len(CanonicalForms()); got != 4 {
		t.Errorf("CanonicalForms: %d", got)
	}
	if got := len(ExtendedForms()); got != 6 {
		t.Errorf("ExtendedForms: %d", got)
	}
}

func TestExtrapolateWithCrossValidation(t *testing.T) {
	_, _, _, inputs := smallSetup(t)
	res, err := testEngine.Extrapolate(context.Background(), inputs, 512, ExtrapOptions{
		Forms:         ExtendedForms(),
		CrossValidate: true,
	})
	if err != nil {
		t.Fatalf("Extrapolate(CV): %v", err)
	}
	if err := res.Signature.Validate(); err != nil {
		t.Fatalf("CV signature invalid: %v", err)
	}
	// No element may select the quadratic with only three inputs under CV
	// (the leave-one-out subsets have two points, too few for three
	// parameters).
	for _, f := range res.Fits {
		if f.Form == "quadratic" {
			t.Errorf("CV selected quadratic for %s with 3 inputs", f.Element)
		}
	}
}

func TestPredictDetailedExposesPerRank(t *testing.T) {
	app, _, prof, inputs := smallSetup(t)
	pred, err := testEngine.Predict(context.Background(),
		PredictRequest{Signature: inputs[0], Profile: prof, App: app, WithReplay: true})
	if err != nil {
		t.Fatalf("Predict(WithReplay): %v", err)
	}
	replay := pred.Replay
	if len(replay.RankEnd) != inputs[0].CoreCount {
		t.Fatalf("replay has %d ranks", len(replay.RankEnd))
	}
	var max float64
	for _, e := range replay.RankEnd {
		if e > max {
			max = e
		}
	}
	if math.Abs(max-pred.Runtime) > 1e-12 {
		t.Errorf("prediction runtime %g != max rank end %g", pred.Runtime, max)
	}
}

func TestEnergyWrappers(t *testing.T) {
	app, cfg, prof, inputs := smallSetup(t)
	_ = app
	model := DefaultEnergyModel(cfg)
	rep, err := EstimateEnergy(inputs[0], prof, model)
	if err != nil {
		t.Fatalf("EstimateEnergy: %v", err)
	}
	if rep.Joules <= 0 {
		t.Errorf("energy %g", rep.Joules)
	}
	pts, err := DVFSSweep(inputs[0], prof, model, []float64{0.8, 1.0, 1.2})
	if err != nil {
		t.Fatalf("DVFSSweep: %v", err)
	}
	if len(pts) != 3 {
		t.Fatalf("sweep points %d", len(pts))
	}
	minE, minEDP := OptimalFrequency(pts)
	if minE.Scale == 0 || minEDP.Scale == 0 {
		t.Error("optimal frequencies not found")
	}
	// Bad model propagates an error.
	bad := model
	bad.BaseWatts = 0
	if _, err := EstimateEnergy(inputs[0], prof, bad); err == nil {
		t.Error("invalid energy model accepted")
	}
}

func TestClusterRanksWrapper(t *testing.T) {
	_, _, _, inputs := smallSetup(t)
	rc, err := ClusterRanks(inputs[0], 2, 1)
	if err != nil {
		t.Fatalf("ClusterRanks: %v", err)
	}
	if len(rc.Clusters) != 2 {
		t.Fatalf("clusters: %d", len(rc.Clusters))
	}
	if _, err := ClusterRanks(inputs[0], 99, 1); err == nil {
		t.Error("oversized k accepted")
	}
}

func TestCollectInputsPropagatesErrors(t *testing.T) {
	app, cfg, _, _ := smallSetup(t)
	if _, err := testEngine.CollectInputs(context.Background(), app, []int{64, 1}, cfg, CollectOptions{Sampling: FixedSampling(1000, 0)}); err == nil {
		t.Error("invalid core count accepted")
	}
}

func TestPrefetchVariantMachine(t *testing.T) {
	cfg, err := LoadMachine("bluewaters+pf")
	if err != nil {
		t.Fatalf("LoadMachine(+pf): %v", err)
	}
	if !cfg.Prefetch || cfg.Name != "bluewaters+pf" {
		t.Errorf("prefetch variant wrong: %+v", cfg.Name)
	}
	app, _ := LoadApp("stencil3d")
	sig, err := testEngine.CollectSignature(context.Background(), app, 64, cfg, CollectOptions{Sampling: FixedSampling(60_000, 150_000)})
	if err != nil {
		t.Fatalf("CollectSignature(+pf): %v", err)
	}
	// The streaming halo-pack block must show prefetch traffic.
	var sawPF bool
	for _, b := range sig.DominantTrace().Blocks {
		if b.FV.PrefetchPerRef > 0 {
			sawPF = true
		}
	}
	if !sawPF {
		t.Error("no block recorded prefetch traffic on the +pf machine")
	}
}

func TestPredictTimeline(t *testing.T) {
	app, _, prof, inputs := smallSetup(t)
	pred, err := testEngine.Predict(context.Background(),
		PredictRequest{Signature: inputs[0], Profile: prof, App: app, WithTimeline: true})
	if err != nil {
		t.Fatalf("Predict(WithTimeline): %v", err)
	}
	tl := pred.Timeline
	if tl == nil || len(tl.Segments) == 0 {
		t.Fatal("empty timeline")
	}
	plain, err := testEngine.Predict(context.Background(),
		PredictRequest{Signature: inputs[0], Profile: prof, App: app})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Runtime != pred.Runtime {
		t.Errorf("timeline replay diverged: %g vs %g", pred.Runtime, plain.Runtime)
	}
	// Every rank appears in the timeline.
	seen := map[int]bool{}
	for _, s := range tl.Segments {
		seen[s.Rank] = true
		if s.End > pred.Runtime+1e-12 {
			t.Errorf("segment past runtime: %+v", s)
		}
	}
	if len(seen) != inputs[0].CoreCount {
		t.Errorf("timeline covers %d of %d ranks", len(seen), inputs[0].CoreCount)
	}
}

func TestSignatureSerializationPreservesPrediction(t *testing.T) {
	app, _, prof, inputs := smallSetup(t)
	dir := t.TempDir()
	for _, ext := range []string{"json", "bin"} {
		path := filepath.Join(dir, "sig."+ext)
		if err := store.Save(inputs[0], path); err != nil {
			t.Fatalf("Save(%s): %v", ext, err)
		}
		loaded, err := store.Load(path)
		if err != nil {
			t.Fatalf("Load(%s): %v", ext, err)
		}
		orig, err := testEngine.Predict(context.Background(),
			PredictRequest{Signature: inputs[0], Profile: prof, App: app})
		if err != nil {
			t.Fatal(err)
		}
		round, err := testEngine.Predict(context.Background(),
			PredictRequest{Signature: loaded, Profile: prof, App: app})
		if err != nil {
			t.Fatalf("Predict(loaded %s): %v", ext, err)
		}
		if orig.Runtime != round.Runtime {
			t.Errorf("%s round trip changed the prediction: %g vs %g",
				ext, orig.Runtime, round.Runtime)
		}
	}
}
