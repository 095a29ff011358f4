package store

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"tracex/internal/trace"
)

// genReuse builds a random valid reuse-distance signature. Distances span
// the exact and log-linear bucket ranges; function and file names repeat to
// exercise interning.
func genReuse(r *rand.Rand) *trace.ReuseSignature {
	funcs := []string{"kernel_a", "kernel_b", "halo_pack", "reduce"}
	files := []string{"solver.f90", "comm.f90"}
	rs := &trace.ReuseSignature{
		App:       "synthetic",
		CoreCount: 1 << (3 + r.Intn(6)),
		LineSize:  64,
	}
	var id uint64
	for b, n := 0, 1+r.Intn(12); b < n; b++ {
		id += 1 + uint64(r.Intn(1000))
		h := trace.ReuseHistogram{LineSize: 64}
		for i, k := 0, 1+r.Intn(200); i < k; i++ {
			h.Add(uint64(r.Intn(1 << uint(1+r.Intn(40)))))
		}
		for i, k := 0, r.Intn(8); i < k; i++ {
			h.AddCold()
		}
		rs.Blocks = append(rs.Blocks, trace.ReuseBlock{
			ID:   id,
			Func: funcs[r.Intn(len(funcs))],
			File: files[r.Intn(len(files))],
			Line: r.Intn(5000),
			Refs: 1 + float64(r.Intn(1_000_000)),

			WorkingSetBytes: float64(r.Intn(1 << 24)),
			FPPerRef:        r.Float64() * 4,
			AddFrac:         0.5 * r.Float64(),
			MulFrac:         0.4 * r.Float64(),
			DivFrac:         0.1 * r.Float64(),
			LoadFrac:        r.Float64(),
			BytesPerRef:     8,
			ILP:             1 + r.Float64()*3,
			Hist:            h,
		})
	}
	return rs
}

// encodeReuseToBytes is a test helper asserting EncodeReuse succeeds.
func encodeReuseToBytes(t *testing.T, rs *trace.ReuseSignature) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeReuse(&buf, rs); err != nil {
		t.Fatalf("EncodeReuse: %v", err)
	}
	return buf.Bytes()
}

func TestReuseCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		want := genReuse(r)
		got, err := DecodeReuse(bytes.NewReader(encodeReuseToBytes(t, want)))
		if err != nil {
			t.Fatalf("iteration %d: DecodeReuse: %v", i, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("iteration %d: round trip diverged\nwant %+v\ngot  %+v", i, want, got)
		}
	}
}

// TestV1SignatureObjectsStillDecode pins backward compatibility: a codec
// version-1 trace-signature object (exactly today's encoding with the
// version byte rewritten to 1 — version 2 changed nothing about signature
// records, it only added the reuse kind) must still decode, so stores
// written before the reuse redesign keep serving their signatures.
func TestV1SignatureObjectsStillDecode(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	want := genSignature(r)
	v1 := encodeToBytes(t, want)
	if v1[4] != Version {
		t.Fatalf("version byte at offset 4 is %d, want %d", v1[4], Version)
	}
	v1[4] = 1
	got, err := Decode(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("Decode of v1 object: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("v1 object decoded differently")
	}
	// Reuse objects did not exist before version 2: a v1-stamped reuse
	// object is corrupt, not merely old.
	rv := encodeReuseToBytes(t, genReuse(r))
	rv[4] = 1
	if _, err := DecodeReuse(bytes.NewReader(rv)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("v1-stamped reuse object: %v, want ErrCorrupt", err)
	}
}

// TestReuseDecodeKindMismatch pins the cross-kind decode contract: each
// decoder identifies a healthy object of the other kind as ErrWrongKind —
// distinct from ErrCorrupt, so the store never quarantines it.
func TestReuseDecodeKindMismatch(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	sigBytes := encodeToBytes(t, genSignature(r))
	reuseBytes := encodeReuseToBytes(t, genReuse(r))
	if _, err := DecodeReuse(bytes.NewReader(sigBytes)); !errors.Is(err, ErrWrongKind) {
		t.Errorf("DecodeReuse(signature): %v, want ErrWrongKind", err)
	}
	if _, err := Decode(bytes.NewReader(reuseBytes)); !errors.Is(err, ErrWrongKind) {
		t.Errorf("Decode(reuse): %v, want ErrWrongKind", err)
	}
	for _, err := range []error{
		func() error { _, err := DecodeReuse(bytes.NewReader(sigBytes)); return err }(),
		func() error { _, err := Decode(bytes.NewReader(reuseBytes)); return err }(),
	} {
		if errors.Is(err, ErrCorrupt) {
			t.Errorf("kind mismatch also wraps ErrCorrupt (%v): would quarantine a healthy object", err)
		}
	}
	// Only an object that decodes in full is the other kind: a torn one is
	// corrupt, so the store quarantines it.
	if _, err := Decode(bytes.NewReader(reuseBytes[:len(reuseBytes)-1])); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Decode(torn reuse object): %v, want ErrCorrupt", err)
	}
	if _, err := DecodeReuse(bytes.NewReader(sigBytes[:len(sigBytes)-1])); !errors.Is(err, ErrCorrupt) {
		t.Errorf("DecodeReuse(torn signature object): %v, want ErrCorrupt", err)
	}
}

// TestReuseDecodeTruncated checks every proper prefix of a valid reuse
// encoding is rejected (the torn-write case).
func TestReuseDecodeTruncated(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	full := encodeReuseToBytes(t, genReuse(r))
	for n := 0; n < len(full); n++ {
		if _, err := DecodeReuse(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("decode of %d/%d-byte prefix succeeded", n, len(full))
		}
	}
}

func TestEncodeReuseRejectsNil(t *testing.T) {
	if err := EncodeReuse(&bytes.Buffer{}, nil); err == nil {
		t.Error("EncodeReuse(nil) succeeded")
	}
}
