package tracex

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// storeTestOpts keeps collections fast while staying above the warm-up
// needs of the simulated regions.
var storeTestOpts = CollectOptions{Sampling: FixedSampling(30_000, 100_000)}

// TestEngineWarmStartFromDisk is the tentpole contract: a fresh engine
// (a restarted process) over the same store directory serves a repeat
// collection from disk without re-simulating.
func TestEngineWarmStartFromDisk(t *testing.T) {
	dir := t.TempDir()
	app, err := LoadApp("stencil3d")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadMachine("bluewaters")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	e1 := NewEngine(WithStore(dir))
	if err := e1.Err(); err != nil {
		t.Fatalf("engine config: %v", err)
	}
	sig1, prov, err := e1.CollectSignatureFrom(ctx, app, 64, cfg, storeTestOpts)
	if err != nil {
		t.Fatalf("first collection: %v", err)
	}
	if prov != FromCollected {
		t.Errorf("first collection provenance %q", prov)
	}
	// Same engine, same request: the memory tier answers.
	_, prov, err = e1.CollectSignatureFrom(ctx, app, 64, cfg, storeTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	if prov != FromMemory {
		t.Errorf("repeat collection provenance %q", prov)
	}
	st1 := e1.Stats()
	if st1.StorePuts != 1 || st1.StoreMisses != 1 {
		t.Errorf("first engine store stats: puts=%d misses=%d", st1.StorePuts, st1.StoreMisses)
	}

	// A fresh engine over the same directory — the "restarted process".
	e2 := NewEngine(WithStore(dir))
	if err := e2.Err(); err != nil {
		t.Fatal(err)
	}
	sig2, prov, err := e2.CollectSignatureFrom(ctx, app, 64, cfg, storeTestOpts)
	if err != nil {
		t.Fatalf("warm-start collection: %v", err)
	}
	if prov != FromDisk {
		t.Fatalf("warm-start provenance %q, want %q", prov, FromDisk)
	}
	if !reflect.DeepEqual(sig1, sig2) {
		t.Error("disk-served signature differs from the collected one")
	}
	st2 := e2.Stats()
	if st2.StoreHits != 1 || st2.StorePuts != 0 || st2.Collections != 1 {
		t.Errorf("warm-start stats: %+v", st2)
	}

	// Different options are a different identity: no false sharing.
	narrower := storeTestOpts
	narrower.Sampling = FixedSampling(20_000, 100_000)
	_, prov, err = e2.CollectSignatureFrom(ctx, app, 64, cfg, narrower)
	if err != nil {
		t.Fatal(err)
	}
	if prov != FromCollected {
		t.Errorf("different options served from %q", prov)
	}
}

// TestEngineStoreAccessors pins Store() exposure and the store-less default.
func TestEngineStoreAccessors(t *testing.T) {
	plain := NewEngine()
	if plain.Store() != nil {
		t.Error("store-less engine exposes a store")
	}
	dir := t.TempDir()
	e := NewEngine(WithStore(dir))
	if e.Store() == nil {
		t.Fatal("WithStore engine has no store")
	}
	if e.Store().Dir() != dir {
		t.Errorf("store dir %q", e.Store().Dir())
	}
}

// TestWithStoreBadDirPoisonsEngine: an unusable store directory surfaces as
// a configuration error naming the path, on every call.
func TestWithStoreBadDirPoisonsEngine(t *testing.T) {
	file := filepath.Join(t.TempDir(), "plainfile")
	if err := os.WriteFile(file, []byte("x"), 0o600); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(file, "store")
	e := NewEngine(WithStore(bad))
	err := e.Err()
	if err == nil {
		t.Fatal("engine over an uncreatable store reports no error")
	}
	if !strings.Contains(err.Error(), bad) {
		t.Errorf("error does not name the path: %v", err)
	}
	app, _ := LoadApp("stencil3d")
	cfg, _ := LoadMachine("bluewaters")
	if _, _, err := e.CollectSignatureFrom(context.Background(), app, 64, cfg, storeTestOpts); err == nil {
		t.Error("poisoned engine served a collection")
	}
}

// TestStoreKeyDiscriminates pins the exported key derivation: identical
// inputs agree; any identity change produces a different key.
func TestStoreKeyDiscriminates(t *testing.T) {
	cfg, err := LoadMachine("bluewaters")
	if err != nil {
		t.Fatal(err)
	}
	base := StoreKey("uh3d", 512, cfg, CollectOptions{})
	if again := StoreKey("uh3d", 512, cfg, CollectOptions{}); again != base {
		t.Error("identical inputs produced different keys")
	}
	if k := StoreKey("uh3d", 1024, cfg, CollectOptions{}); k == base {
		t.Error("core count not discriminated")
	}
	if k := StoreKey("uh3d", 512, cfg, CollectOptions{Sampling: FixedSampling(9, 0)}); k == base {
		t.Error("options not discriminated")
	}
	other := cfg
	other.Prefetch = !other.Prefetch
	if k := StoreKey("uh3d", 512, other, CollectOptions{}); k == base {
		t.Error("machine configuration not discriminated")
	}
	if base.App != "uh3d" || base.Machine != cfg.Name || base.Cores != 512 {
		t.Errorf("key lost its human-readable identity: %+v", base)
	}
}
