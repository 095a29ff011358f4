package store

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"tracex/internal/trace"
)

// fixtureSignature is a valid signature in which every exported field
// reachable from Signature is non-zero: two ranks of two blocks each, and
// uncertainty for both blocks.
func fixtureSignature() *trace.Signature {
	ids := []uint64{17, 4242}
	s := &trace.Signature{App: "fixture", CoreCount: 64, Machine: "testmachine"}
	for rank := 1; rank <= 2; rank++ {
		tr := trace.Trace{App: s.App, CoreCount: s.CoreCount, Rank: rank, Machine: s.Machine, Levels: 3}
		for i, id := range ids {
			k := float64(rank + i)
			tr.Blocks = append(tr.Blocks, trace.Block{
				ID: id, Func: "kernel", File: "solver.f90", Line: 100 + i,
				FV: trace.FeatureVector{
					FPOps: 1000 * k, FPAdd: 400 * k, FPMul: 300 * k, FPDivSqrt: 20 * k,
					MemOps: 2000 * k, Loads: 1500 * k, Stores: 400 * k, BytesPerRef: 7.5,
					HitRates:        []float64{0.875, 0.9375, 0.96875},
					WorkingSetBytes: 1 << 20, ILP: 2.25, PrefetchPerRef: 0.125,
				},
			})
		}
		s.Traces = append(s.Traces, tr)
	}
	s.Uncertainty = &trace.SignatureUncertainty{Dof: 3}
	for _, id := range ids {
		vars := make([]float64, trace.NumScalarElements+3)
		for e := range vars {
			vars[e] = float64(e+1) / 64
		}
		s.Uncertainty.Blocks = append(s.Uncertainty.Blocks, trace.BlockUncertainty{ID: id, Vars: vars})
	}
	return s
}

// zeroFields appends the path of every exported field reachable from v
// that holds its zero value. Nil pointers and empty slices count as zero;
// every slice element is walked.
func zeroFields(v reflect.Value, path string, out *[]string) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			*out = append(*out, path)
			return
		}
		zeroFields(v.Elem(), path, out)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				zeroFields(v.Field(i), path+"."+f.Name, out)
			}
		}
	case reflect.Slice:
		if v.Len() == 0 {
			*out = append(*out, path)
		}
		for i := 0; i < v.Len(); i++ {
			zeroFields(v.Index(i), fmt.Sprintf("%s[%d]", path, i), out)
		}
	default:
		if v.IsZero() {
			*out = append(*out, path)
		}
	}
}

// TestEveryEncodingCarriesEverySignatureField is the completeness gate: a
// field added to Signature, Trace, Block, FeatureVector or the uncertainty
// types must get a value in fixtureSignature, and from then on every
// encoding — the store codec, .bin and .json files and per-rank
// directories — must carry it.
func TestEveryEncodingCarriesEverySignatureField(t *testing.T) {
	want := fixtureSignature()
	var zero []string
	zeroFields(reflect.ValueOf(want), "Signature", &zero)
	if len(zero) > 0 {
		t.Fatalf("fixtureSignature leaves %v zero: give every field a non-zero value so the round trips cover it", zero)
	}
	if err := want.Validate(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	dir := t.TempDir()
	viaFile := func(name string) func() (*trace.Signature, error) {
		return func() (*trace.Signature, error) {
			path := filepath.Join(dir, name)
			if err := Save(want, path); err != nil {
				return nil, err
			}
			return Load(path)
		}
	}
	viaDir := func(binary bool) func() (*trace.Signature, error) {
		return func() (*trace.Signature, error) {
			path := filepath.Join(dir, fmt.Sprintf("ranks-%t", binary))
			if err := SaveDir(want, path, binary); err != nil {
				return nil, err
			}
			return LoadDir(path)
		}
	}
	for name, roundTrip := range map[string]func() (*trace.Signature, error){
		"codec": func() (*trace.Signature, error) {
			var buf bytes.Buffer
			if err := Encode(&buf, want); err != nil {
				return nil, err
			}
			return Decode(&buf)
		},
		".bin file":           viaFile("sig.bin"),
		".json file":          viaFile("sig.json"),
		"per-rank directory":  viaDir(false),
		"per-rank .bin files": viaDir(true),
	} {
		got, err := roundTrip()
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if !reflect.DeepEqual(want, got) {
			t.Errorf("%s round trip lost data:\nwant %+v\ngot  %+v", name, want, got)
		}
	}
}
