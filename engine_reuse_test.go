package tracex

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"tracex/internal/store"
)

// TestStoreKeyLegacyOptHash pins backward compatibility of store keys: for
// the exact model, optIdentity must reproduce the pre-Model `%+v` rendering
// of the normalized collector configuration byte for byte, so stores
// written before the Model field existed keep resolving under their
// original keys.
func TestStoreKeyLegacyOptHash(t *testing.T) {
	// The legacy identity string was fmt.Sprintf("%+v", normalized) over a
	// struct with exactly these fields in this order.
	legacy := struct {
		SampleRefs      int
		MaxWarmRefs     int
		Workers         int
		BatchSize       int
		SharedHierarchy bool
	}{SampleRefs: 20_000, MaxWarmRefs: 60_000}
	opt := CollectOptions{Sampling: FixedSampling(20_000, 60_000)}
	if got, want := optIdentity(opt.Normalized()), fmt.Sprintf("%+v", legacy); got != want {
		t.Errorf("optIdentity(exact) = %q, want legacy rendering %q", got, want)
	}
	// The exact model spelled out explicitly hashes identically to the
	// implicit default...
	exact := opt
	exact.Model = ModelExact
	m := testMachine(t, "bluewaters")
	if StoreKey("a", 8, m, opt) != StoreKey("a", 8, m, exact) {
		t.Error("explicit exact model changed the store key")
	}
	// ...while the analytical model is a distinct identity.
	ana := opt
	ana.Model = ModelAnalytical
	if StoreKey("a", 8, m, opt) == StoreKey("a", 8, m, ana) {
		t.Error("analytical model shares the exact model's store key")
	}
}

// TestReuseStoreKeyMachineFree pins the redesigned identity: reuse profiles
// are keyed without any machine component, and the cache model does not
// change which stored profile a request resolves to.
func TestReuseStoreKeyMachineFree(t *testing.T) {
	opt := CollectOptions{Sampling: FixedSampling(20_000, 60_000)}
	k := ReuseStoreKey("uh3d", 256, opt)
	if k.Machine != "" || k.MachineFP != "" {
		t.Errorf("reuse key carries machine identity: %+v", k)
	}
	if k.Kind != store.KindReuse {
		t.Errorf("reuse key kind = %q, want %q", k.Kind, store.KindReuse)
	}
	variant := opt
	variant.Model = ModelAnalytical
	if ReuseStoreKey("uh3d", 256, variant) != k {
		t.Error("the cache model changed the reuse profile key")
	}
	shape := opt
	shape.Sampling = FixedSampling(40_000, 60_000)
	if ReuseStoreKey("uh3d", 256, shape) == k {
		t.Error("sample length did not change the reuse profile key")
	}
}

// TestEngineAnalyticalProvenance: a collection under the analytical model
// reports FromAnalytical on the first request (the per-geometry signature
// is derived, not simulated) and FromMemory once memoized.
func TestEngineAnalyticalProvenance(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	app := testApp(t, "stencil3d")
	cfg := testMachine(t, "bluewaters")
	ctx := context.Background()
	opt := smallOpt
	opt.Model = ModelAnalytical

	sig, prov, err := e.CollectSignatureFrom(ctx, app, 64, cfg, opt)
	if err != nil {
		t.Fatalf("CollectSignatureFrom: %v", err)
	}
	if prov != FromAnalytical {
		t.Errorf("first collection provenance %q, want %q", prov, FromAnalytical)
	}
	if err := sig.Validate(); err != nil {
		t.Fatalf("derived signature invalid: %v", err)
	}
	if sig.Machine != cfg.Name {
		t.Errorf("signature machine %q, want %q", sig.Machine, cfg.Name)
	}
	if _, prov, err = e.CollectSignatureFrom(ctx, app, 64, cfg, opt); err != nil || prov != FromMemory {
		t.Errorf("second collection: prov=%q err=%v, want memory hit", prov, err)
	}

	// A second geometry reuses the recorded profile: the reuse memo is hit,
	// no second recording runs.
	if _, prov, err = e.CollectSignatureFrom(ctx, app, 64, testMachine(t, "kraken"), opt); err != nil || prov != FromAnalytical {
		t.Errorf("second geometry: prov=%q err=%v, want %q", prov, err, FromAnalytical)
	}
	st := e.Stats()
	if st.ReuseCollections != 1 {
		t.Errorf("ReuseCollections = %d, want 1 (one profile serves both geometries)", st.ReuseCollections)
	}
	if st.ReuseHits == 0 {
		t.Error("ReuseHits = 0, want at least one memo hit")
	}

	// A prefetcher-enabled target cannot be served analytically.
	if _, _, err := e.CollectSignatureFrom(ctx, app, 64, testMachine(t, "bluewaters+pf"), opt); !errors.Is(err, ErrModelUnsupported) {
		t.Errorf("prefetch target under analytical model: %v, want ErrModelUnsupported", err)
	}
}

// TestEngineCollectReuseTiering: the reuse profile flows through the same
// memo → disk → collect tiers as signatures, surviving an engine restart.
func TestEngineCollectReuseTiering(t *testing.T) {
	dir := t.TempDir()
	app := testApp(t, "stencil3d")
	ctx := context.Background()

	e1 := NewEngine(WithStore(dir))
	if err := e1.Err(); err != nil {
		t.Fatal(err)
	}
	rs1, prov, err := e1.CollectReuse(ctx, app, 64, smallOpt)
	if err != nil {
		t.Fatalf("CollectReuse: %v", err)
	}
	if prov != FromCollected {
		t.Errorf("cold collection provenance %q, want %q", prov, FromCollected)
	}
	if _, prov, err = e1.CollectReuse(ctx, app, 64, smallOpt); err != nil || prov != FromMemory {
		t.Errorf("warm collection: prov=%q err=%v, want memory hit", prov, err)
	}
	e1.Close()

	// A new engine over the same store warm-starts from disk.
	e2 := NewEngine(WithStore(dir))
	if err := e2.Err(); err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	rs2, prov, err := e2.CollectReuse(ctx, app, 64, smallOpt)
	if err != nil {
		t.Fatalf("CollectReuse after restart: %v", err)
	}
	if prov != FromDisk {
		t.Errorf("restart collection provenance %q, want %q", prov, FromDisk)
	}
	if len(rs1.Blocks) != len(rs2.Blocks) {
		t.Fatalf("profile changed across restart: %d vs %d blocks", len(rs1.Blocks), len(rs2.Blocks))
	}
	for i := range rs1.Blocks {
		if rs1.Blocks[i].Hist.Refs != rs2.Blocks[i].Hist.Refs {
			t.Errorf("block %d histogram changed across restart", rs1.Blocks[i].ID)
		}
	}
}
