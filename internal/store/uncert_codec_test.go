package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"tracex/internal/trace"
)

// withUncertainty returns s carrying generated variances for every block
// ID of its traces: about three in four are zero, as in an adaptive
// collection, and the rest mix integral values, fractions and tiny
// variances so every value tag is exercised.
func withUncertainty(r *rand.Rand, s *trace.Signature) *trace.Signature {
	ids := map[uint64]bool{}
	for _, tr := range s.Traces {
		for _, b := range tr.Blocks {
			ids[b.ID] = true
		}
	}
	u := &trace.SignatureUncertainty{Dof: 1 + r.Intn(6)}
	for id := range ids {
		vars := make([]float64, trace.NumScalarElements+s.Traces[0].Levels)
		for e := range vars {
			switch r.Intn(8) {
			case 0:
				vars[e] = r.Float64() * 1e-4
			case 1:
				vars[e] = float64(r.Intn(1000))
			}
		}
		u.Blocks = append(u.Blocks, trace.BlockUncertainty{ID: id, Vars: vars})
	}
	sort.Slice(u.Blocks, func(i, j int) bool { return u.Blocks[i].ID < u.Blocks[j].ID })
	s.Uncertainty = u
	return s
}

// TestCodecZeroVarianceCostsOneByte: each zero variance is a single tag
// byte, so an adaptive signature's mostly-zero variances stay small.
func TestCodecZeroVarianceCostsOneByte(t *testing.T) {
	s := genSignature(rand.New(rand.NewSource(3)))
	base := len(encodeToBytes(t, s))
	withUncertainty(rand.New(rand.NewSource(4)), s)
	var nVars int
	for _, b := range s.Uncertainty.Blocks {
		clear(b.Vars)
		nVars += len(b.Vars)
	}
	// Marker, dof, block count and checksum; then per block an ID delta
	// (at most two bytes for these gaps), a count, and one byte per
	// variance.
	nBlocks := len(s.Uncertainty.Blocks)
	if extra := len(encodeToBytes(t, s)) - base; extra > 7+3*nBlocks+nVars {
		t.Errorf("%d zero variances in %d blocks cost %d bytes", nVars, nBlocks, extra)
	}
}

// TestCodecVersionFollowsUncertainty pins the version-byte rule: the
// uncertainty record appears exactly in version-3 objects, in both
// directions.
func TestCodecVersionFollowsUncertainty(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	plain := genSignature(r)
	if v := encodeToBytes(t, plain)[4]; v != Version {
		t.Errorf("signature without uncertainty encodes as version %d, want %d", v, Version)
	}
	if v := encodeToBytes(t, withUncertainty(r, genSignature(r)))[4]; v != versionUncertainty {
		t.Errorf("signature with uncertainty encodes as version %d, want %d", v, versionUncertainty)
	}
	// A v3 stamp on a record-less object, and a v2 stamp on an object with
	// the record, are both corrupt.
	v3 := encodeToBytes(t, plain)
	v3[4] = versionUncertainty
	if _, err := Decode(bytes.NewReader(v3)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("version 3 without an uncertainty record: %v, want ErrCorrupt", err)
	}
	v2 := encodeToBytes(t, withUncertainty(r, genSignature(r)))
	v2[4] = Version
	if _, err := Decode(bytes.NewReader(v2)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("version 2 with an uncertainty record: %v, want ErrCorrupt", err)
	}
	// The record is checked by Signature.Validate like the JSON path.
	bad := withUncertainty(r, genSignature(r))
	bad.Uncertainty.Dof = 0
	if _, err := Decode(bytes.NewReader(encodeToBytes(t, bad))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("uncertainty with dof 0: %v, want ErrCorrupt", err)
	}
}

// TestEncodingUnchangedWithoutUncertainty pins the bytes of objects that
// carry no uncertainty: the SHA-256 over eight generated signatures and
// eight reuse profiles, recorded before the uncertainty record existed.
// Content hashes name store objects, so any change here moves them.
func TestEncodingUnchangedWithoutUncertainty(t *testing.T) {
	for _, tc := range []struct {
		name   string
		encode func(seed int64) []byte
		want   string
	}{
		{"signature", func(seed int64) []byte {
			return encodeToBytes(t, genSignature(rand.New(rand.NewSource(seed))))
		}, "b2a1132e02f1bb37c6a5559e558eed541914df3193d47cf21e1a4ba0cba1bfc5"},
		{"reuse", func(seed int64) []byte {
			return encodeReuseToBytes(t, genReuse(rand.New(rand.NewSource(seed))))
		}, "a59d753d6aebf7df45df2edd50cefcc751596e62c4d267c65f41b4b5ff82dd60"},
	} {
		h := sha256.New()
		for seed := int64(1); seed <= 8; seed++ {
			h.Write(tc.encode(seed))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s encodings hash to %s, want %s", tc.name, got, tc.want)
		}
	}
}
