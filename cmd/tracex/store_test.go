package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tracex"
	"tracex/internal/trace"
)

// TestResolveStoreDir pins the XDG resolution chain: explicit flag wins,
// "off" disables, empty falls back to $XDG_CACHE_HOME then $HOME/.cache.
func TestResolveStoreDir(t *testing.T) {
	if dir, err := resolveStoreDir("off"); err != nil || dir != "" {
		t.Errorf(`resolveStoreDir("off") = %q, %v`, dir, err)
	}
	if dir, err := resolveStoreDir("/tmp/explicit"); err != nil || dir != "/tmp/explicit" {
		t.Errorf("explicit flag: %q, %v", dir, err)
	}
	t.Setenv("XDG_CACHE_HOME", "/tmp/xdgcache")
	if dir, err := resolveStoreDir(""); err != nil || dir != filepath.Join("/tmp/xdgcache", "tracex", "store") {
		t.Errorf("XDG default: %q, %v", dir, err)
	}
	t.Setenv("XDG_CACHE_HOME", "")
	t.Setenv("HOME", "/tmp/fakehome")
	dir, err := resolveStoreDir("")
	if err != nil || dir != filepath.Join("/tmp/fakehome", ".cache", "tracex", "store") {
		t.Errorf("HOME fallback: %q, %v", dir, err)
	}
}

// storeEng builds an engine persisting to its own temp store.
func storeEng(t *testing.T) (*tracex.Engine, string) {
	t.Helper()
	dir := t.TempDir()
	eng := tracex.NewEngine(tracex.WithStore(dir))
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	return eng, dir
}

// TestCmdStoreFlow drives the full CLI store surface: a collection lands
// in the store, export writes it out, import files it into a second
// store, and ls/gc report sensible state throughout.
func TestCmdStoreFlow(t *testing.T) {
	eng, _ := storeEng(t)
	app, err := tracex.LoadApp("stencil3d")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := tracex.LoadMachine("bluewaters")
	if err != nil {
		t.Fatal(err)
	}
	sig, prov, err := eng.CollectSignatureFrom(bg, app, 64, cfg, tracex.CollectOptions{Sampling: tracex.FixedSampling(30_000, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if prov != tracex.FromCollected {
		t.Fatalf("collection provenance %q", prov)
	}

	out := tmp(t, "exported.json")
	if err := cmdExport(eng, []string{"-key", "stencil3d@64@bluewaters", "-out", out}); err != nil {
		t.Fatalf("export: %v", err)
	}
	exported, err := trace.Load(out)
	if err != nil {
		t.Fatalf("loading exported signature: %v", err)
	}
	if !reflect.DeepEqual(sig, exported) {
		t.Error("exported signature differs from the collected one")
	}

	// Import into a second, empty store; ls shows the entry and the next
	// default-options collection warm-starts from it.
	eng2, _ := storeEng(t)
	if err := cmdImport(eng2, []string{"-in", out}); err != nil {
		t.Fatalf("import: %v", err)
	}
	if err := cmdStore(eng2, []string{"ls"}); err != nil {
		t.Fatalf("store ls: %v", err)
	}
	_, prov2, err := eng2.CollectSignatureFrom(bg, app, 64, cfg, tracex.CollectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if prov2 != tracex.FromDisk {
		t.Errorf("post-import collection came from %q, want disk", prov2)
	}
	if err := cmdStore(eng2, []string{"gc"}); err != nil {
		t.Fatalf("store gc: %v", err)
	}
}

// TestCmdStoreValidation pins the CLI error surface.
func TestCmdStoreValidation(t *testing.T) {
	eng, _ := storeEng(t)
	if err := cmdExport(eng, []string{"-out", tmp(t, "x.json")}); err == nil {
		t.Error("export without -key/-hash succeeded")
	}
	if err := cmdExport(eng, []string{"-key", "not-a-key", "-out", tmp(t, "x.json")}); err == nil {
		t.Error("export with a malformed key succeeded")
	}
	if err := cmdExport(eng, []string{"-key", "nope@64@bluewaters", "-out", tmp(t, "x.json")}); err == nil {
		t.Error("export of a missing entry succeeded")
	}
	if err := cmdImport(eng, []string{}); err == nil {
		t.Error("import without -in succeeded")
	}
	if err := cmdStore(eng, []string{}); err == nil {
		t.Error("store without a subcommand succeeded")
	}
	if err := cmdStore(eng, []string{"prune"}); err == nil {
		t.Error("store with an unknown subcommand succeeded")
	}
	// A store-less engine names the situation.
	plain := tracex.NewEngine()
	if err := cmdStore(plain, []string{"ls"}); err == nil || !strings.Contains(err.Error(), "store") {
		t.Errorf("store-less engine error: %v", err)
	}
	// Importing a file that is not a loadable signature fails cleanly.
	p := tmp(t, "bad.json")
	if err := os.WriteFile(p, []byte(`{"app":"x","core_count":2,"machine":"not-a-machine"}`), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := cmdImport(eng, []string{"-in", p}); err == nil {
		t.Error("import of an invalid signature file succeeded")
	}
}
