package trace_test

import (
	"os"
	"path/filepath"
	"testing"

	"tracex/internal/store"
	"tracex/internal/trace"
)

func TestSaveDirLoadDirRoundTrip(t *testing.T) {
	for _, binary := range []bool{false, true} {
		dir := filepath.Join(t.TempDir(), "sig")
		s := trace.SampleSignature()
		if err := store.SaveDir(s, dir, binary); err != nil {
			t.Fatalf("store.SaveDir(binary=%v): %v", binary, err)
		}
		got, err := store.LoadDir(dir)
		if err != nil {
			t.Fatalf("store.LoadDir(binary=%v): %v", binary, err)
		}
		if got.App != s.App || got.CoreCount != s.CoreCount || len(got.Traces) != len(s.Traces) {
			t.Fatalf("round trip mismatch: %+v", got)
		}
		for i := range s.Traces {
			if got.Traces[i].Rank != s.Traces[i].Rank {
				t.Errorf("trace %d rank %d, want %d", i, got.Traces[i].Rank, s.Traces[i].Rank)
			}
			if got.Traces[i].Blocks[2].FV.MemOps != s.Traces[i].Blocks[2].FV.MemOps {
				t.Errorf("trace %d block data mismatch", i)
			}
		}
	}
}

func TestSaveDirProducesPerRankFiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sig")
	s := trace.SampleSignature()
	if err := store.SaveDir(s, dir, false); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// meta.json + one file per rank.
	if len(entries) != len(s.Traces)+1 {
		t.Fatalf("directory holds %d entries, want %d", len(entries), len(s.Traces)+1)
	}
	if !store.IsSignatureDir(dir) {
		t.Error("store.IsSignatureDir rejects a valid signature dir")
	}
	if store.IsSignatureDir(filepath.Join(dir, "rank_000000.json")) {
		t.Error("store.IsSignatureDir accepts a file")
	}
	if store.IsSignatureDir(t.TempDir()) {
		t.Error("store.IsSignatureDir accepts a dir without meta.json")
	}
}

func TestLoadDirRejectsCorruption(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sig")
	s := trace.SampleSignature()
	if err := store.SaveDir(s, dir, false); err != nil {
		t.Fatal(err)
	}
	// Missing rank file.
	if err := os.Remove(filepath.Join(dir, "rank_000001.json")); err != nil {
		t.Fatal(err)
	}
	if _, err := store.LoadDir(dir); err == nil {
		t.Error("missing rank file accepted")
	}
	// Corrupt meta.
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.LoadDir(dir); err == nil {
		t.Error("corrupt meta accepted")
	}
	// Missing directory entirely.
	if _, err := store.LoadDir(filepath.Join(dir, "nope")); err == nil {
		t.Error("missing directory accepted")
	}
	// Rank file with mismatched metadata.
	dir2 := filepath.Join(t.TempDir(), "sig2")
	if err := store.SaveDir(s, dir2, false); err != nil {
		t.Fatal(err)
	}
	other := trace.SampleSignature()
	other.App = "other"
	for i := range other.Traces {
		other.Traces[i].App = "other"
	}
	one := &trace.Signature{App: "other", CoreCount: other.CoreCount, Machine: other.Machine,
		Traces: []trace.Trace{other.Traces[0]}}
	if err := store.Save(one, filepath.Join(dir2, "rank_000000.json")); err != nil {
		t.Fatal(err)
	}
	if _, err := store.LoadDir(dir2); err == nil {
		t.Error("mismatched rank metadata accepted")
	}
}

func TestSaveDirRejectsInvalidSignature(t *testing.T) {
	if err := store.SaveDir(&trace.Signature{}, t.TempDir(), false); err == nil {
		t.Error("invalid signature accepted")
	}
}
