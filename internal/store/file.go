package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tracex/internal/trace"
)

// This file holds the signature file formats: a single file, encoded by
// this package's codec when its name ends in ".bin" and as JSON otherwise,
// and the per-rank directory. The paper's application signature is
// literally a set of trace files, one per MPI task (at 1024 cores, 1024
// files). SaveDir/LoadDir store a Signature the same way — a meta.json
// with the run identity and the signature's uncertainty, plus one
// rank_<NNNNNN>.json (or .bin) per contained trace — so per-rank files can
// be produced, inspected and consumed independently, exactly like the PMaC
// tooling's trace sets.

// Save writes the signature to path, in the store codec when the filename
// ends in ".bin" and as JSON otherwise.
func Save(s *trace.Signature, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	if isBinaryPath(path) {
		err = Encode(f, s)
	} else {
		err = s.WriteJSON(f)
	}
	if err != nil {
		return fmt.Errorf("store: writing %s: %w", path, err)
	}
	return f.Close()
}

// Load reads and validates a signature from path, choosing the format by
// extension as in Save.
func Load(path string) (*trace.Signature, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	if isBinaryPath(path) {
		return Decode(f)
	}
	return trace.ReadJSON(f)
}

func isBinaryPath(path string) bool { return strings.HasSuffix(path, ".bin") }

// dirMeta is the signature-level metadata file of a per-rank directory.
type dirMeta struct {
	App         string                      `json:"app"`
	CoreCount   int                         `json:"core_count"`
	Machine     string                      `json:"machine"`
	Binary      bool                        `json:"binary"`
	Ranks       []int                       `json:"ranks"`
	Uncertainty *trace.SignatureUncertainty `json:"uncertainty,omitempty"`
}

const metaFile = "meta.json"

// rankFile names the per-rank trace file.
func rankFile(rank int, binary bool) string {
	ext := ".json"
	if binary {
		ext = ".bin"
	}
	return fmt.Sprintf("rank_%06d%s", rank, ext)
}

// SaveDir writes the signature as a directory of per-rank trace files. The
// directory is created if missing; existing rank files are overwritten.
// Binary selects the store codec for the rank files.
func SaveDir(s *trace.Signature, dir string, binary bool) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	meta := dirMeta{App: s.App, CoreCount: s.CoreCount, Machine: s.Machine, Binary: binary,
		Uncertainty: s.Uncertainty}
	for i := range s.Traces {
		tr := &s.Traces[i]
		meta.Ranks = append(meta.Ranks, tr.Rank)
		// Wrap the single trace in a one-trace signature so the rank files
		// reuse the standard serialization (and stay independently
		// loadable with Load).
		one := &trace.Signature{App: s.App, CoreCount: s.CoreCount, Machine: s.Machine,
			Traces: []trace.Trace{*tr}}
		if err := Save(one, filepath.Join(dir, rankFile(tr.Rank, binary))); err != nil {
			return err
		}
	}
	sort.Ints(meta.Ranks)
	f, err := os.Create(filepath.Join(dir, metaFile))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(meta); err != nil {
		return fmt.Errorf("store: writing %s: %w", metaFile, err)
	}
	return f.Close()
}

// LoadDir reads a signature directory written by SaveDir, reassembling the
// per-rank trace files into one Signature (traces sorted by rank).
func LoadDir(dir string) (*trace.Signature, error) {
	f, err := os.Open(filepath.Join(dir, metaFile))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var meta dirMeta
	err = json.NewDecoder(f).Decode(&meta)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("store: decoding %s: %w", metaFile, err)
	}
	if len(meta.Ranks) == 0 {
		return nil, fmt.Errorf("store: signature directory %s lists no ranks", dir)
	}
	sig := &trace.Signature{App: meta.App, CoreCount: meta.CoreCount, Machine: meta.Machine,
		Uncertainty: meta.Uncertainty}
	for _, rank := range meta.Ranks {
		one, err := Load(filepath.Join(dir, rankFile(rank, meta.Binary)))
		if err != nil {
			return nil, fmt.Errorf("store: rank %d: %w", rank, err)
		}
		if len(one.Traces) != 1 {
			return nil, fmt.Errorf("store: rank file for %d holds %d traces", rank, len(one.Traces))
		}
		if one.Traces[0].Rank != rank {
			return nil, fmt.Errorf("store: rank file %d contains trace for rank %d", rank, one.Traces[0].Rank)
		}
		if one.App != meta.App || one.CoreCount != meta.CoreCount || one.Machine != meta.Machine {
			return nil, fmt.Errorf("store: rank %d metadata disagrees with %s", rank, metaFile)
		}
		sig.Traces = append(sig.Traces, one.Traces[0])
	}
	if err := sig.Validate(); err != nil {
		return nil, err
	}
	return sig, nil
}

// IsSignatureDir reports whether path looks like a signature directory
// (exists and contains meta.json).
func IsSignatureDir(path string) bool {
	fi, err := os.Stat(path)
	if err != nil || !fi.IsDir() {
		return false
	}
	_, err = os.Stat(filepath.Join(path, metaFile))
	return err == nil
}
