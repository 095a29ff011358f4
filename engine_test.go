package tracex

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"tracex/internal/pebil"
)

// smallOpt keeps engine-test collections fast.
var smallOpt = CollectOptions{Sampling: FixedSampling(20_000, 60_000)}

func testApp(t testing.TB, name string) *App {
	t.Helper()
	app, err := LoadApp(name)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func testMachine(t testing.TB, name string) MachineConfig {
	t.Helper()
	cfg, err := LoadMachine(name)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestEngineOptions(t *testing.T) {
	e := NewEngine(WithParallelism(3), WithCacheSize(7))
	if e.parallelism != 3 {
		t.Errorf("parallelism %d, want 3", e.parallelism)
	}
	if cap(e.sem) != 3 {
		t.Errorf("sem capacity %d, want 3", cap(e.sem))
	}
	if err := e.Err(); err != nil {
		t.Errorf("valid options reported configuration error %v", err)
	}
}

// TestEngineClose covers the lifecycle redesign: Close drains the
// collection arena and releases the store handle, is idempotent, and flips
// every pipeline method to ErrEngineClosed.
func TestEngineClose(t *testing.T) {
	app := testApp(t, "stencil3d")
	cfg := testMachine(t, "bluewaters")
	ctx := context.Background()
	e := NewEngine(WithParallelism(2), WithStore(t.TempDir()))
	if _, err := e.CollectSignature(ctx, app, 64, cfg, smallOpt); err != nil {
		t.Fatalf("collect before Close: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := e.Profile(ctx, cfg); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("Profile after Close: %v, want ErrEngineClosed", err)
	}
	if _, err := e.CollectSignature(ctx, app, 64, cfg, smallOpt); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("CollectSignature after Close: %v, want ErrEngineClosed", err)
	}
	if _, err := e.Measure(ctx, app, 64, cfg, smallOpt); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("Measure after Close: %v, want ErrEngineClosed", err)
	}
	if _, err := e.Study(ctx, StudyRequest{}); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("Study after Close: %v, want ErrEngineClosed", err)
	}
	// Err still reports configuration state, not closure.
	if err := e.Err(); err != nil {
		t.Errorf("Err after Close: %v, want nil", err)
	}
	// The store handle was released: writes through it now fail.
	if _, err := e.Store().Put(&Signature{}, SignatureKey{}); err == nil {
		t.Error("store Put after Close succeeded, want error from released handle")
	}
}

// TestEngineBadParallelism checks the clamp-or-error redesign: zero and
// negative worker bounds used to be silently replaced, now they poison the
// engine with an ErrBadParallelism-wrapping error.
func TestEngineBadParallelism(t *testing.T) {
	ctx := context.Background()
	app := testApp(t, "stencil3d")
	cfg := testMachine(t, "bluewaters")
	for _, n := range []int{0, -1, -8} {
		e := NewEngine(WithParallelism(n))
		if !errors.Is(e.Err(), ErrBadParallelism) {
			t.Fatalf("WithParallelism(%d): Err() = %v, want ErrBadParallelism", n, e.Err())
		}
		// Every pipeline method refuses to run on a misconfigured engine.
		if _, err := e.Profile(ctx, cfg); !errors.Is(err, ErrBadParallelism) {
			t.Errorf("Profile on bad engine: %v", err)
		}
		if _, err := e.CollectSignature(ctx, app, 64, cfg, smallOpt); !errors.Is(err, ErrBadParallelism) {
			t.Errorf("CollectSignature on bad engine: %v", err)
		}
		if _, err := e.Predict(ctx, PredictRequest{}); !errors.Is(err, ErrBadParallelism) {
			t.Errorf("Predict on bad engine: %v", err)
		}
		if _, err := e.Study(ctx, StudyRequest{}); !errors.Is(err, ErrBadParallelism) {
			t.Errorf("Study on bad engine: %v", err)
		}
	}
	// A later valid option does not mask an earlier invalid one.
	if e := NewEngine(WithParallelism(0), WithParallelism(4)); !errors.Is(e.Err(), ErrBadParallelism) {
		t.Errorf("Err() = %v after invalid-then-valid options", e.Err())
	}
}

// TestEngineCollectCache is the memoization acceptance criterion: a second
// identical collection must be served from cache with zero new simulation.
func TestEngineCollectCache(t *testing.T) {
	e := NewEngine()
	ctx := context.Background()
	app := testApp(t, "stencil3d")
	cfg := testMachine(t, "bluewaters")

	first, err := e.CollectSignature(ctx, app, 64, cfg, smallOpt)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.CollectSignature(ctx, app, 64, cfg, smallOpt)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("second identical collection did not return the cached signature")
	}
	st := e.Stats()
	if st.Collections != 1 || st.CollectionHits != 1 {
		t.Errorf("stats %+v, want 1 collection and 1 hit", st)
	}

	// A different core count is a different key.
	if _, err := e.CollectSignature(ctx, app, 128, cfg, smallOpt); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Collections != 2 {
		t.Errorf("collections %d after distinct request, want 2", st.Collections)
	}
}

func TestEngineProfileCache(t *testing.T) {
	e := NewEngine()
	ctx := context.Background()
	cfg := testMachine(t, "opteron2")
	first, err := e.Profile(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Profile(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("second profile request did not return the cached profile")
	}
	if st := e.Stats(); st.ProfileBuilds != 1 || st.ProfileHits != 1 {
		t.Errorf("stats %+v, want 1 build and 1 hit", e.Stats())
	}
	// Same name, different geometry → different fingerprint → new sweep.
	tweaked := cfg
	tweaked.MemBandwidthGBs *= 2
	if _, err := e.Profile(ctx, tweaked); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.ProfileBuilds != 2 {
		t.Errorf("profile builds %d after geometry change, want 2", st.ProfileBuilds)
	}
}

// TestEngineCollectInputsDedup exercises the singleflight path through the
// public API: duplicate core counts in one batch must run one simulation.
func TestEngineCollectInputsDedup(t *testing.T) {
	e := NewEngine()
	app := testApp(t, "stencil3d")
	cfg := testMachine(t, "bluewaters")
	sigs, err := e.CollectInputs(context.Background(), app, []int{64, 64, 64, 128}, cfg, smallOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(sigs) != 4 {
		t.Fatalf("got %d signatures", len(sigs))
	}
	if sigs[0] != sigs[1] || sigs[1] != sigs[2] {
		t.Error("duplicate counts produced distinct signatures")
	}
	if st := e.Stats(); st.Collections != 2 {
		t.Errorf("ran %d collections for 2 distinct counts", st.Collections)
	}
}

func TestEngineCancelledContext(t *testing.T) {
	e := NewEngine()
	app := testApp(t, "stencil3d")
	cfg := testMachine(t, "bluewaters")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.CollectSignature(ctx, app, 64, cfg, smallOpt); !errors.Is(err, context.Canceled) {
		t.Errorf("CollectSignature on cancelled ctx: %v", err)
	}
	if _, err := e.Profile(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("Profile on cancelled ctx: %v", err)
	}
	if _, err := e.Extrapolate(ctx, nil, 512, ExtrapOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("Extrapolate on cancelled ctx: %v", err)
	}
	if _, err := e.Measure(ctx, app, 64, cfg, smallOpt); !errors.Is(err, context.Canceled) {
		t.Errorf("Measure on cancelled ctx: %v", err)
	}
}

// TestEngineCancellationMidCollection is the promptness acceptance
// criterion: cancelling mid-simulation must abort the collection quickly
// even though the full run would take far longer.
func TestEngineCancellationMidCollection(t *testing.T) {
	e := NewEngine()
	app := testApp(t, "uh3d")
	cfg := testMachine(t, "bluewaters")
	heavy := CollectOptions{Sampling: FixedSampling(5_000_000, 10_000_000)}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := e.CollectSignature(ctx, app, 2048, cfg, heavy)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-collection cancel returned %v", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
}

func TestEnginePredictAndBatch(t *testing.T) {
	e := NewEngine()
	ctx := context.Background()
	app := testApp(t, "stencil3d")
	cfg := testMachine(t, "bluewaters")
	sig, err := e.CollectSignature(ctx, app, 64, cfg, smallOpt)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := e.Profile(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}

	base, err := e.Predict(ctx, PredictRequest{Signature: sig, App: app, Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	if base.Runtime <= 0 {
		t.Fatalf("non-positive runtime %g", base.Runtime)
	}
	if base.Replay != nil || base.Timeline != nil {
		t.Error("replay/timeline attached without being requested")
	}

	// One request type covers the old Predict/PredictDetailed/
	// PredictTimeline trio.
	full, err := e.Predict(ctx, PredictRequest{
		Signature: sig, App: app, Profile: prof, WithReplay: true, WithTimeline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if full.Replay == nil || full.Timeline == nil {
		t.Fatal("requested replay/timeline missing")
	}
	if full.Runtime != base.Runtime {
		t.Errorf("detailed prediction runtime %g != %g", full.Runtime, base.Runtime)
	}

	// Omitting the profile makes the engine build (and cache) it from the
	// request's machine config.
	fromCfg, err := e.Predict(ctx, PredictRequest{Signature: sig, App: app, Machine: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if fromCfg.Runtime != base.Runtime {
		t.Errorf("machine-config prediction runtime %g != %g", fromCfg.Runtime, base.Runtime)
	}

	// Batch: results in request order, all identical here.
	reqs := make([]PredictRequest, 16)
	for i := range reqs {
		reqs[i] = PredictRequest{Signature: sig, App: app, Profile: prof, WithReplay: i%2 == 0}
	}
	preds, err := e.PredictMany(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range preds {
		if p == nil || p.Runtime != base.Runtime {
			t.Fatalf("batch prediction %d: %+v", i, p)
		}
		if (p.Replay != nil) != (i%2 == 0) {
			t.Errorf("batch prediction %d replay presence wrong", i)
		}
	}

	// Validation errors.
	if _, err := e.Predict(ctx, PredictRequest{App: app, Profile: prof}); err == nil {
		t.Error("request without signature accepted")
	}
	if _, err := e.Predict(ctx, PredictRequest{Signature: sig, Profile: prof}); err == nil {
		t.Error("request without app accepted")
	}
}

// TestEngineConcurrentUse hammers one engine from many goroutines; run with
// -race to check the concurrency-safety claim.
func TestEngineConcurrentUse(t *testing.T) {
	e := NewEngine()
	ctx := context.Background()
	app := testApp(t, "stencil3d")
	cfg := testMachine(t, "bluewaters")
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sig, err := e.CollectSignature(ctx, app, 64+32*(i%2), cfg, smallOpt)
			if err != nil {
				errs[i] = err
				return
			}
			prof, err := e.Profile(ctx, cfg)
			if err != nil {
				errs[i] = err
				return
			}
			_, errs[i] = e.Predict(ctx, PredictRequest{Signature: sig, App: app, Profile: prof})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	if st := e.Stats(); st.Collections != 2 {
		t.Errorf("%d collections for 2 distinct keys across 8 workers", st.Collections)
	}
}

func TestEngineStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("study in -short mode")
	}
	e := NewEngine()
	ctx := context.Background()
	app := testApp(t, "stencil3d")
	cfg := testMachine(t, "bluewaters")
	res, err := e.Study(ctx, StudyRequest{
		App:         app,
		Machine:     cfg,
		InputCounts: []int{64, 128, 256},
		TargetCores: 512,
		Collect:     smallOpt,
		WithTruth:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tgt := res.Target(512)
	if res.Profile == nil || len(res.Inputs) != 3 || tgt == nil || tgt.Extrapolation == nil {
		t.Fatalf("incomplete study result %+v", res)
	}
	if tgt.Extrapolated == nil || tgt.Extrapolated.CoreCount != 512 {
		t.Fatalf("bad extrapolated prediction %+v", tgt.Extrapolated)
	}
	if tgt.Truth == nil || tgt.Collected == nil {
		t.Fatal("WithTruth did not produce the collected baseline")
	}
	if res.Target(4096) != nil {
		t.Error("Target(4096) found a target the study never evaluated")
	}
	rows := res.Rows()
	if len(rows) != 1 || rows[0].TargetCores != 512 {
		t.Fatalf("rows %+v, want one row at 512", rows)
	}
	if rows[0].PredictedSeconds != tgt.Extrapolated.Runtime || rows[0].ActualSeconds != tgt.Collected.Runtime {
		t.Errorf("row %+v disagrees with predictions", rows[0])
	}
	if want := math.Abs(rows[0].PredictedSeconds-rows[0].ActualSeconds) / rows[0].ActualSeconds; rows[0].AbsRelErr != want {
		t.Errorf("AbsRelErr %g, want %g", rows[0].AbsRelErr, want)
	}

	// Request validation.
	if _, err := e.Study(ctx, StudyRequest{Machine: cfg, InputCounts: []int{64}}); err == nil {
		t.Error("study without app accepted")
	}
	if _, err := e.Study(ctx, StudyRequest{App: app, Machine: cfg}); err == nil {
		t.Error("study without input counts accepted")
	}
	if _, err := e.Study(ctx, StudyRequest{App: app, Machine: cfg, InputCounts: []int{64}}); err == nil {
		t.Error("study without any target accepted")
	}
	if _, err := e.Study(ctx, StudyRequest{
		App: app, Machine: cfg, InputCounts: []int{64}, TargetCounts: []int{-512},
	}); err == nil {
		t.Error("study with negative target accepted")
	}
}

// TestEngineStudyMultiTarget exercises the multi-target redesign: one study
// evaluating several extrapolation targets off shared inputs, with sorted
// typed rows and a stable JSON encoding.
func TestEngineStudyMultiTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("study in -short mode")
	}
	e := NewEngine()
	ctx := context.Background()
	app := testApp(t, "stencil3d")
	cfg := testMachine(t, "bluewaters")
	res, err := e.Study(ctx, StudyRequest{
		App:          app,
		Machine:      cfg,
		InputCounts:  []int{64, 128, 256},
		TargetCores:  512,
		TargetCounts: []int{768, 512}, // duplicate of TargetCores on purpose
		Collect:      smallOpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Targets) != 2 {
		t.Fatalf("%d targets after dedup, want 2", len(res.Targets))
	}
	if res.Targets[0].TargetCores != 512 || res.Targets[1].TargetCores != 768 {
		t.Fatalf("targets not sorted ascending: %d, %d",
			res.Targets[0].TargetCores, res.Targets[1].TargetCores)
	}
	for _, tgt := range res.Targets {
		if tgt.Extrapolation == nil || tgt.Extrapolated == nil {
			t.Fatalf("target %d incomplete", tgt.TargetCores)
		}
		if tgt.Extrapolated.CoreCount != tgt.TargetCores {
			t.Errorf("target %d predicted at %d cores", tgt.TargetCores, tgt.Extrapolated.CoreCount)
		}
		if tgt.Truth != nil || tgt.Collected != nil {
			t.Errorf("target %d has truth without WithTruth", tgt.TargetCores)
		}
	}
	// Target() addresses each evaluated count directly.
	if res.Target(512) != &res.Targets[0] || res.Target(768) != &res.Targets[1] {
		t.Error("Target() does not address the evaluated counts")
	}

	rows := res.Rows()
	if len(rows) != 2 || rows[0].TargetCores != 512 || rows[1].TargetCores != 768 {
		t.Fatalf("rows %+v", rows)
	}
	if rows[0].ActualSeconds != 0 || rows[0].AbsRelErr != 0 {
		t.Error("truthless rows carry actuals")
	}
	// Stable JSON: deterministic field order and repeatable bytes.
	a, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(res.Rows())
	if !bytes.Equal(a, b) {
		t.Error("row encoding not stable across calls")
	}
	if !bytes.Contains(a, []byte(`"target_cores":512`)) || !bytes.Contains(a, []byte(`"predicted_seconds"`)) {
		t.Errorf("unexpected row encoding %s", a)
	}
}

// TestEngineObservability checks the Stats/Registry surface: cache and pool
// figures, per-stage span summaries, and the pipeline metrics recorded into
// the engine's registry by the stages beneath it.
func TestEngineObservability(t *testing.T) {
	e := NewEngine(WithParallelism(3))
	ctx := context.Background()
	app := testApp(t, "stencil3d")
	cfg := testMachine(t, "bluewaters")
	if _, err := e.CollectSignature(ctx, app, 64, cfg, smallOpt); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CollectSignature(ctx, app, 64, cfg, smallOpt); err != nil {
		t.Fatal(err)
	}
	prof, err := e.Profile(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := e.CollectSignature(ctx, app, 64, cfg, smallOpt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Predict(ctx, PredictRequest{Signature: sig, App: app, Profile: prof}); err != nil {
		t.Fatal(err)
	}

	st := e.Stats()
	if st.Collections != 1 || st.CollectionHits != 2 {
		t.Errorf("collections %d hits %d, want 1 and 2", st.Collections, st.CollectionHits)
	}
	if st.ProfileBuilds != 1 || st.Predictions != 1 {
		t.Errorf("builds %d predictions %d, want 1 and 1", st.ProfileBuilds, st.Predictions)
	}
	if st.PoolCapacity != 3 {
		t.Errorf("pool capacity %d, want 3", st.PoolCapacity)
	}
	stages := map[string]StageSummary{}
	for _, s := range st.Stages {
		stages[s.Name] = s
	}
	if s := stages["engine.collect"]; s.Count != 3 || s.TotalSeconds <= 0 {
		t.Errorf("engine.collect summary %+v, want 3 occurrences", s)
	}
	for _, name := range []string{"engine.profile", "engine.predict", "pebil.collect", "multimaps.sweep", "psins.replay"} {
		if stages[name].Count == 0 {
			t.Errorf("stage %q not recorded; have %v", name, st.Stages)
		}
	}

	// The stages' own metrics land in this engine's registry, not the
	// process-wide default.
	snap := e.Registry().Snapshot()
	vals := map[string]float64{}
	for _, m := range snap.Metrics {
		vals[m.Name] = m.Value
	}
	for _, name := range []string{"pebil.blocks", "multimaps.refs", "psins.events", "engine.pool.capacity"} {
		if vals[name] <= 0 {
			t.Errorf("metric %q missing or zero in engine registry", name)
		}
	}
	if vals["engine.predictions"] != 1 {
		t.Errorf("engine.predictions = %g, want 1", vals["engine.predictions"])
	}

	// WithRegistry(nil) disables collection entirely.
	off := NewEngine(WithRegistry(nil))
	if _, err := off.CollectSignature(ctx, app, 64, cfg, smallOpt); err != nil {
		t.Fatal(err)
	}
	if off.Registry() != nil {
		t.Error("disabled engine exposes a registry")
	}
	if st := off.Stats(); st.Collections != 1 || st.Stages != nil {
		t.Errorf("disabled engine stats %+v", st)
	}
}

func TestSentinelErrors(t *testing.T) {
	e := NewEngine()
	ctx := context.Background()
	app := testApp(t, "stencil3d")
	cfg := testMachine(t, "bluewaters")
	prof, err := e.Profile(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// ErrNoTraces: a signature without trace files cannot be predicted.
	empty := &Signature{App: app.Name(), CoreCount: 64, Machine: cfg.Name}
	if _, err := e.Predict(ctx, PredictRequest{Signature: empty, App: app, Profile: prof}); !errors.Is(err, ErrNoTraces) {
		t.Errorf("empty signature: %v, want ErrNoTraces", err)
	}

	// ErrMachineMismatch: signature and profile for different machines.
	sig, err := e.CollectSignature(ctx, app, 64, cfg, smallOpt)
	if err != nil {
		t.Fatal(err)
	}
	wrong := *sig
	wrong.Machine = "kraken"
	if _, err := e.Predict(ctx, PredictRequest{Signature: &wrong, App: app, Profile: prof}); !errors.Is(err, ErrMachineMismatch) {
		t.Errorf("mismatched machines: %v, want ErrMachineMismatch", err)
	}

	// ErrMachineMismatch also covers mixed extrapolation inputs.
	in128, err := e.CollectSignature(ctx, app, 128, cfg, smallOpt)
	if err != nil {
		t.Fatal(err)
	}
	in256, err := e.CollectSignature(ctx, app, 256, cfg, smallOpt)
	if err != nil {
		t.Fatal(err)
	}
	mixed := *in128
	mixed.Machine = "kraken"
	mixed.Traces = append([]Trace(nil), in128.Traces...)
	for i := range mixed.Traces {
		mixed.Traces[i].Machine = "kraken"
	}
	if _, err := e.Extrapolate(ctx, []*Signature{sig, &mixed, in256}, 512, ExtrapOptions{}); !errors.Is(err, ErrMachineMismatch) {
		t.Errorf("mixed inputs: %v, want ErrMachineMismatch", err)
	}

	// ErrRankOutOfRange: selecting a rank ≥ core count during collection.
	col := pebil.NewCollector(0)
	defer col.Close()
	if _, err := col.Collect(ctx, app, 64, cfg, []int{64},
		smallOpt); !errors.Is(err, ErrRankOutOfRange) {
		t.Errorf("rank 64 of 64: %v, want ErrRankOutOfRange", err)
	}

	// ErrEmptyWorkload: the facade re-export matches what pebil wraps.
	wrapped := fmt.Errorf("pebil: shared collection: %w", pebil.ErrEmptyWorkload)
	if !errors.Is(wrapped, ErrEmptyWorkload) {
		t.Error("ErrEmptyWorkload re-export does not match pebil's sentinel")
	}
}

func TestExtrapOptionsValidate(t *testing.T) {
	if err := (ExtrapOptions{}).Validate(); err != nil {
		t.Errorf("zero options rejected: %v", err)
	}
	if err := (ExtrapOptions{MinInputs: 1}).Validate(); err == nil {
		t.Error("MinInputs 1 accepted")
	}
	if err := (ExtrapOptions{Forms: []Form{nil}}).Validate(); err == nil {
		t.Error("nil form accepted")
	}
	// The engine rejects bad options before touching the inputs.
	e := NewEngine()
	if _, err := e.Extrapolate(context.Background(), nil, 512, ExtrapOptions{MinInputs: 1}); err == nil {
		t.Error("Extrapolate with bad options accepted")
	}
}

// TestPredictRequestVariants checks that the replay and timeline
// attachments of Engine.Predict agree with the plain prediction (the
// single-request replacement for the removed package-level
// Predict/PredictDetailed/PredictTimeline trio).
func TestPredictRequestVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("variant round-trip in -short mode")
	}
	app := testApp(t, "stencil3d")
	cfg := testMachine(t, "bluewaters")
	ctx := context.Background()
	e := testEngine
	sig, err := e.CollectSignature(ctx, app, 64, cfg, smallOpt)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := e.Profile(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := e.Predict(ctx, PredictRequest{Signature: sig, Profile: prof, App: app})
	if err != nil {
		t.Fatal(err)
	}
	det, err := e.Predict(ctx, PredictRequest{Signature: sig, Profile: prof, App: app, WithReplay: true})
	if err != nil {
		t.Fatal(err)
	}
	if det.Replay == nil || det.Runtime != pred.Runtime {
		t.Error("WithReplay prediction disagrees with the plain one")
	}
	tlPred, err := e.Predict(ctx, PredictRequest{Signature: sig, Profile: prof, App: app, WithTimeline: true})
	if err != nil {
		t.Fatal(err)
	}
	if tlPred.Timeline == nil || tlPred.Runtime != pred.Runtime {
		t.Error("WithTimeline prediction disagrees with the plain one")
	}
}

// TestPredictWarmAllocs gates the warm predict path deterministically: a
// stencil3d@1024 predict from a cached signature and profile compiles the
// communication program and replays it in a bounded number of allocations,
// none per rank, event or message, and in at most 1.21 MB. It measures ~66
// allocations and ~1.05 MB. A program whose rank traces grew by append made
// ~5,500 allocations; compiling a materialized []mpi.Event took 4.2 MB, and
// matching Builder messages through per-source endpoint buckets ~1.4 MB.
func TestPredictWarmAllocs(t *testing.T) {
	app := testApp(t, "stencil3d")
	target, err := LoadMachine("bluewaters")
	if err != nil {
		t.Fatal(err)
	}
	// The shared test engine holds the memoized bluewaters profile of the
	// other tests; AllocsPerRun's untimed first call builds it otherwise.
	eng := testEngine
	ctx := context.Background()
	sig, err := eng.CollectSignature(ctx, app, 1024, target, CollectOptions{Sampling: FixedSampling(2_000, 2_000)})
	if err != nil {
		t.Fatal(err)
	}
	req := PredictRequest{Signature: sig, App: app, Machine: &target}
	predict := func() {
		if _, err := eng.Predict(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, predict)
	if allocs > 600 {
		t.Errorf("warm stencil3d@1024 predict made %.0f allocations, want ≤ 600", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 3; i++ {
		predict()
	}
	runtime.ReadMemStats(&after)
	perPredict := (after.TotalAlloc - before.TotalAlloc) / 3
	t.Logf("warm stencil3d@1024 predict: %.0f allocations, %d bytes", allocs, perPredict)
	if perPredict > 1_210_000 {
		t.Errorf("warm stencil3d@1024 predict allocated %d bytes, want ≤ 1.21 MB", perPredict)
	}
}

// TestExtrapolateAllocs bounds the allocations of an intervals-off
// extrapolation, the path every pipeline-cold study runs: three stencil3d
// signatures to 1,728 ranks, 3 blocks of 14 elements each. The bound is
// the count measured when each element's forms were fitted into a map
// (1,277); one fit table per element makes 1,116.
func TestExtrapolateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	app := testApp(t, "stencil3d")
	cfg, err := LoadMachine("bluewaters")
	if err != nil {
		t.Fatal(err)
	}
	eng := testEngine
	ctx := context.Background()
	var inputs []*Signature
	for _, c := range []int{27, 64, 1000} {
		sig, err := eng.CollectSignature(ctx, app, c, cfg, goldenPredictOpt)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, sig)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := eng.Extrapolate(ctx, inputs, 1728, ExtrapOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1277 {
		t.Errorf("intervals-off extrapolation made %.0f allocations, want ≤ 1277", allocs)
	}
}
