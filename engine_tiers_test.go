package tracex

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tracex/internal/trace"
)

// adaptiveOpt is a small adaptive policy: its signatures carry measurement
// variances (Signature.Uncertainty).
var adaptiveOpt = CollectOptions{Sampling: SamplingPolicy{
	Mode: SamplingModeAdaptive, TargetRelErr: 0.1, PilotRefs: 5_000, MinRefs: 5_000, MaxRefs: 50_000, ClusterBlocks: true,
}}

// TestEngineSameIntervalsFromEveryTier: an adaptive signature predicts the
// same intervals whether memory, disk or a peer served it, because every
// tier carries its uncertainty.
func TestEngineSameIntervalsFromEveryTier(t *testing.T) {
	app := testApp(t, "stencil3d")
	target := testMachine(t, "bluewaters")
	ctx := context.Background()
	prof, err := testEngine.Profile(ctx, target)
	if err != nil {
		t.Fatal(err)
	}
	intervals := func(e *Engine, want Provenance) (*Signature, []Interval) {
		t.Helper()
		sig, prov, err := e.CollectSignatureFrom(ctx, app, 16, target, adaptiveOpt)
		if err != nil {
			t.Fatal(err)
		}
		if prov != want {
			t.Fatalf("provenance %q, want %q", prov, want)
		}
		pred, err := e.Predict(ctx, PredictRequest{Signature: sig, App: app, Profile: prof, Intervals: true})
		if err != nil {
			t.Fatal(err)
		}
		return sig, pred.Intervals
	}

	dir := t.TempDir()
	e1 := NewEngine(WithStore(dir))
	defer e1.Close()
	sig, collected := intervals(e1, FromCollected)
	if sig.Uncertainty == nil || len(collected) == 0 {
		t.Fatalf("adaptive collection: uncertainty %v, %d intervals", sig.Uncertainty != nil, len(collected))
	}
	_, fromMemory := intervals(e1, FromMemory)

	e2 := NewEngine(WithStore(dir))
	defer e2.Close()
	_, fromDisk := intervals(e2, FromDisk)

	// Peers exchange signatures as JSON.
	var buf bytes.Buffer
	if err := sig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sent, err := trace.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	e3 := NewEngine(WithRemoteTier(&fakeRemoteTier{sig: sent}))
	defer e3.Close()
	_, fromPeer := intervals(e3, FromPeer)

	for tier, got := range map[Provenance][]Interval{FromMemory: fromMemory, FromDisk: fromDisk, FromPeer: fromPeer} {
		if !reflect.DeepEqual(got, collected) {
			t.Errorf("%s tier intervals %+v, collected %+v", tier, got, collected)
		}
	}
}

// TestEngineCountsStoreReadErrors: an object file missing under a live
// manifest entry reads as a miss and re-collects, but is counted in
// store.read_errors instead of passing silently.
func TestEngineCountsStoreReadErrors(t *testing.T) {
	app := testApp(t, "stencil3d")
	target := testMachine(t, "bluewaters")
	ctx := context.Background()
	dir := t.TempDir()
	e1 := NewEngine(WithStore(dir))
	if _, _, err := e1.CollectSignatureFrom(ctx, app, 16, target, smallOpt); err != nil {
		t.Fatal(err)
	}
	entries := e1.Store().Entries()
	e1.Close()
	if len(entries) != 1 {
		t.Fatalf("%d store entries, want 1", len(entries))
	}
	h := entries[0].Hash
	if err := os.Remove(filepath.Join(dir, "objects", h[:2], h+".sig")); err != nil {
		t.Fatal(err)
	}

	e2 := NewEngine(WithStore(dir))
	defer e2.Close()
	if _, prov, err := e2.CollectSignatureFrom(ctx, app, 16, target, smallOpt); err != nil || prov != FromCollected {
		t.Fatalf("collection over a missing object: %q, %v", prov, err)
	}
	reg := e2.Registry()
	if n := reg.Counter("store.read_errors").Value(); n != 1 {
		t.Errorf("store.read_errors = %d, want 1", n)
	}
	if n := reg.Counter("store.corruptions").Value(); n != 0 {
		t.Errorf("store.corruptions = %d, want 0: a missing object is not corrupt", n)
	}
}

// TestCollectMemoryHitAllocs gates the memory tier deterministically: the
// resolver builds its tier funcs only on a miss, and the machine
// fingerprint in the memo key is one allocation, so a hit costs at most 4
// allocations in CollectSignatureFrom (22 when fmt rendered the
// fingerprint) and 3 in CollectReuse.
func TestCollectMemoryHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	e := NewEngine(WithStore(t.TempDir()))
	defer e.Close()
	app := testApp(t, "stencil3d")
	target := testMachine(t, "bluewaters")
	ctx := context.Background()
	collect := func() {
		if _, _, err := e.CollectSignatureFrom(ctx, app, 16, target, smallOpt); err != nil {
			t.Fatal(err)
		}
	}
	reuse := func() {
		if _, _, err := e.CollectReuse(ctx, app, 16, smallOpt); err != nil {
			t.Fatal(err)
		}
	}
	collect()
	reuse()
	sigAllocs, reuseAllocs := testing.AllocsPerRun(20, collect), testing.AllocsPerRun(20, reuse)
	t.Logf("memory hits: CollectSignatureFrom %.0f, CollectReuse %.0f allocations", sigAllocs, reuseAllocs)
	if sigAllocs > 4 {
		t.Errorf("CollectSignatureFrom memory hit made %.0f allocations, want ≤ 4", sigAllocs)
	}
	if reuseAllocs > 3 {
		t.Errorf("CollectReuse memory hit made %.0f allocations, want ≤ 3", reuseAllocs)
	}
}
