package store

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"tracex/internal/trace"
)

// genFV builds a random feature vector that satisfies trace validation:
// non-negative finite elements, FP composition within FPOps, loads+stores
// within MemOps, monotone cumulative hit rates in [0,1]. Values mix
// integral counts and fractions so every codec tag is exercised.
func genFV(r *rand.Rand, levels int) trace.FeatureVector {
	count := func() float64 { return float64(r.Intn(1_000_000)) }
	add, mul, div := count(), count(), count()
	loads, stores := count(), count()
	fv := trace.FeatureVector{
		FPAdd: add, FPMul: mul, FPDivSqrt: div,
		FPOps: add + mul + div + count(),
		Loads: loads, Stores: stores,
		MemOps:          loads + stores + count(),
		BytesPerRef:     r.Float64() * 64,
		WorkingSetBytes: count() * 8,
		ILP:             r.Float64() * 4,
		HitRates:        make([]float64, levels),
	}
	if r.Intn(2) == 0 {
		fv.PrefetchPerRef = r.Float64()
	}
	h := r.Float64()
	for i := range fv.HitRates {
		fv.HitRates[i] = h
		h += (1 - h) * r.Float64()
	}
	return fv
}

// genSignature builds a random valid signature. Function and file names
// repeat across blocks to exercise string interning.
func genSignature(r *rand.Rand) *trace.Signature {
	funcs := []string{"kernel_a", "kernel_b", "halo_pack", "reduce"}
	files := []string{"solver.f90", "comm.f90"}
	cores := 1 << (3 + r.Intn(6))
	levels := 1 + r.Intn(3)
	s := &trace.Signature{
		App:       "synthetic",
		CoreCount: cores,
		Machine:   "testmachine",
	}
	nTraces := 1 + r.Intn(3)
	for t := 0; t < nTraces; t++ {
		tr := trace.Trace{
			App: s.App, CoreCount: cores, Machine: s.Machine,
			Rank: t, Levels: levels,
		}
		var id uint64
		for b, n := 0, r.Intn(20); b < n; b++ {
			id += 1 + uint64(r.Intn(1000))
			tr.Blocks = append(tr.Blocks, trace.Block{
				ID:   id,
				Func: funcs[r.Intn(len(funcs))],
				File: files[r.Intn(len(files))],
				Line: r.Intn(5000),
				FV:   genFV(r, levels),
			})
		}
		s.Traces = append(s.Traces, tr)
	}
	return s
}

// encodeToBytes is a test helper asserting Encode succeeds.
func encodeToBytes(t *testing.T, s *trace.Signature) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

func TestCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		want := genSignature(r)
		if i >= 100 {
			want = withUncertainty(r, want)
		}
		got, err := Decode(bytes.NewReader(encodeToBytes(t, want)))
		if err != nil {
			t.Fatalf("iteration %d: Decode: %v", i, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("iteration %d: round trip diverged\nwant %+v\ngot  %+v", i, want, got)
		}
	}
}

// TestCodecValueTags pins the tag selection edge cases: exact zero, signed
// negative zero, the 2^53 integral-precision boundary and fractions must
// all survive a round trip bit-exactly.
func TestCodecValueTags(t *testing.T) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1, 0.5, 1 << 53, float64(1<<53) + 2,
		1e300, 1.0 / 3.0,
	} {
		s := &trace.Signature{
			App: "a", CoreCount: 2, Machine: "m",
			Traces: []trace.Trace{{
				App: "a", CoreCount: 2, Machine: "m", Rank: 0, Levels: 1,
				Blocks: []trace.Block{{
					ID: 7, Func: "f", File: "g",
					FV: trace.FeatureVector{BytesPerRef: v, ILP: v, HitRates: []float64{1}},
				}},
			}},
		}
		got, err := Decode(bytes.NewReader(encodeToBytes(t, s)))
		if err != nil {
			t.Fatalf("value %g: Decode: %v", v, err)
		}
		if b := got.Traces[0].Blocks[0].FV.BytesPerRef; math.Float64bits(b) != math.Float64bits(v) {
			t.Errorf("value %g: bits changed: % x → % x", v, math.Float64bits(v), math.Float64bits(b))
		}
	}
}

// TestDecodeTruncated checks that every proper prefix of a valid encoding,
// with and without the uncertainty record, is rejected as corrupt — the
// torn-write case.
func TestDecodeTruncated(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, full := range [][]byte{
		encodeToBytes(t, genSignature(r)),
		encodeToBytes(t, withUncertainty(r, genSignature(r))),
	} {
		for n := 0; n < len(full); n++ {
			if _, err := Decode(bytes.NewReader(full[:n])); err == nil {
				t.Fatalf("decode of %d/%d-byte prefix succeeded", n, len(full))
			} else if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("prefix %d: error does not wrap ErrCorrupt: %v", n, err)
			}
		}
	}
}

// TestDecodeByteFlips checks that corrupting any single byte of a valid
// encoding, with and without the uncertainty record, is detected (the
// magic/version are checked structurally; every other byte is either
// CRC-covered or a CRC byte itself).
func TestDecodeByteFlips(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, full := range [][]byte{
		encodeToBytes(t, genSignature(r)),
		encodeToBytes(t, withUncertainty(r, genSignature(r))),
	} {
		for i := range full {
			corrupt := append([]byte(nil), full...)
			corrupt[i] ^= 0xFF
			if _, err := Decode(bytes.NewReader(corrupt)); err == nil {
				t.Fatalf("decode with byte %d flipped succeeded", i)
			} else if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("byte %d: error does not wrap ErrCorrupt: %v", i, err)
			}
		}
	}
}

func TestDecodeRejectsBadHeader(t *testing.T) {
	cases := map[string][]byte{
		"empty":           {},
		"short magic":     []byte("TX"),
		"wrong magic":     []byte("NOPE\x01"),
		"future version":  []byte("TXSG\x63"),
		"header only":     []byte("TXSG\x01"),
		"string bomb":     append([]byte("TXSG\x01H"), 0xFF, 0xFF, 0xFF, 0xFF, 0x7F),
		"bad record type": append([]byte("TXSG\x01"), 'Z'),
	}
	for name, data := range cases {
		if _, err := Decode(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", name, err)
		}
	}
}

// TestEncodeRejectsNil pins the nil-signature guard.
func TestEncodeRejectsNil(t *testing.T) {
	if err := Encode(&bytes.Buffer{}, nil); err == nil {
		t.Error("Encode(nil) succeeded")
	}
}
