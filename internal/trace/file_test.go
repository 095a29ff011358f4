package trace_test

// The file-format tests (this file, dir_test.go and corruption_test.go)
// exercise the signature files that internal/store reads and writes over
// this package's data model: .json, .bin (the store codec) and per-rank
// directories. They are an external test package so they can import the
// store, which imports trace.

import (
	"path/filepath"
	"reflect"
	"testing"

	"tracex/internal/store"
	"tracex/internal/trace"
)

func TestBinaryRoundTrip(t *testing.T) {
	s := trace.SampleSignature()
	path := filepath.Join(t.TempDir(), "sig.bin")
	if err := store.Save(s, path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := store.Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Errorf("binary round trip mismatch")
	}
}

func TestSaveLoadBothFormats(t *testing.T) {
	dir := t.TempDir()
	s := trace.SampleSignature()
	for _, name := range []string{"sig.json", "sig.bin"} {
		path := filepath.Join(dir, name)
		if err := store.Save(s, path); err != nil {
			t.Fatalf("Save(%s): %v", name, err)
		}
		got, err := store.Load(path)
		if err != nil {
			t.Fatalf("Load(%s): %v", name, err)
		}
		if got.App != s.App || len(got.Traces) != len(s.Traces) {
			t.Errorf("%s: round trip mismatch", name)
		}
	}
	if err := store.Save(s, filepath.Join(dir, "no/dir/sig.json")); err == nil {
		t.Error("bad path accepted")
	}
	if _, err := store.Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}
