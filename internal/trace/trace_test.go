package trace

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func sampleFV(levels int) FeatureVector {
	hr := make([]float64, levels)
	for i := range hr {
		hr[i] = 0.8 + 0.05*float64(i)
	}
	return FeatureVector{
		FPOps: 1000, FPAdd: 500, FPMul: 450, FPDivSqrt: 50,
		MemOps: 2000, Loads: 1500, Stores: 500, BytesPerRef: 8,
		WorkingSetBytes: 1 << 20, ILP: 2.5,
		HitRates: hr,
	}
}

func sampleTrace() *Trace {
	tr := &Trace{App: "demo", CoreCount: 128, Rank: 3, Machine: "bluewaters", Levels: 3}
	for i := 0; i < 5; i++ {
		fv := sampleFV(3)
		fv.MemOps = float64(1000 * (i + 1))
		fv.Loads = fv.MemOps * 0.75
		fv.Stores = fv.MemOps * 0.25
		tr.Blocks = append(tr.Blocks, Block{
			ID: uint64(i + 1), Func: "kernel", File: "demo.f90", Line: 10 * (i + 1), FV: fv,
		})
	}
	return tr
}

func sampleSignature() *Signature {
	s := &Signature{App: "demo", CoreCount: 128, Machine: "bluewaters"}
	for r := 0; r < 3; r++ {
		tr := sampleTrace()
		tr.Rank = r
		// Rank 1 is the heavyweight.
		if r == 1 {
			for i := range tr.Blocks {
				tr.Blocks[i].FV.MemOps *= 3
				tr.Blocks[i].FV.Loads *= 3
				tr.Blocks[i].FV.Stores *= 3
			}
		}
		s.Traces = append(s.Traces, *tr)
	}
	return s
}

func TestValuesRoundTrip(t *testing.T) {
	fv := sampleFV(3)
	vals, err := fv.Values(3)
	if err != nil {
		t.Fatalf("Values: %v", err)
	}
	if len(vals) != NumScalarElements+3 {
		t.Fatalf("got %d values", len(vals))
	}
	back, err := FromValues(vals, 3)
	if err != nil {
		t.Fatalf("FromValues: %v", err)
	}
	if back.FPOps != fv.FPOps || back.MemOps != fv.MemOps || back.ILP != fv.ILP {
		t.Errorf("round trip mismatch: %+v vs %+v", back, fv)
	}
	for i := range fv.HitRates {
		if back.HitRates[i] != fv.HitRates[i] {
			t.Errorf("hit rate %d mismatch", i)
		}
	}
}

func TestValuesArityErrors(t *testing.T) {
	fv := sampleFV(3)
	if _, err := fv.Values(2); err == nil {
		t.Error("wrong level count accepted")
	}
	if _, err := FromValues(make([]float64, 5), 3); err == nil {
		t.Error("short value slice accepted")
	}
}

func TestElementNamesAndConstraints(t *testing.T) {
	names := ElementNames(3)
	if len(names) != NumScalarElements+3 {
		t.Fatalf("got %d names", len(names))
	}
	if names[0] != "fp_ops" || names[NumScalarElements] != "hit_rate_L1" {
		t.Errorf("unexpected names: %v", names)
	}
	cons := ElementConstraints(3)
	if len(cons) != len(names) {
		t.Fatalf("constraints/names length mismatch")
	}
	for i := 0; i < NumScalarElements; i++ {
		if cons[i].Min != 0 || !math.IsInf(cons[i].Max, 1) {
			t.Errorf("scalar constraint %d = %+v", i, cons[i])
		}
	}
	for i := NumScalarElements; i < len(cons); i++ {
		if cons[i].Min != 0 || cons[i].Max != 1 {
			t.Errorf("hit-rate constraint %d = %+v", i, cons[i])
		}
	}
}

func TestFeatureVectorValidate(t *testing.T) {
	fv := sampleFV(3)
	if err := fv.Validate(3); err != nil {
		t.Fatalf("valid vector rejected: %v", err)
	}
	mutations := []func(*FeatureVector){
		func(f *FeatureVector) { f.FPOps = math.NaN() },
		func(f *FeatureVector) { f.MemOps = -1 },
		func(f *FeatureVector) { f.HitRates[0] = 1.5 },
		func(f *FeatureVector) { f.HitRates = []float64{0.9, 0.5, 0.95} }, // non-monotone
		func(f *FeatureVector) { f.Loads = f.MemOps * 2 },
		func(f *FeatureVector) { f.FPAdd = f.FPOps * 2 },
		func(f *FeatureVector) { f.WorkingSetBytes = math.Inf(1) },
	}
	for i, mut := range mutations {
		f := sampleFV(3)
		f.HitRates = append([]float64(nil), f.HitRates...)
		mut(&f)
		if err := f.Validate(3); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestTraceValidate(t *testing.T) {
	tr := sampleTrace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := sampleTrace()
	bad.App = ""
	if err := bad.Validate(); err == nil {
		t.Error("empty app accepted")
	}
	bad = sampleTrace()
	bad.Rank = bad.CoreCount
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range rank accepted")
	}
	bad = sampleTrace()
	bad.Blocks[1].ID = bad.Blocks[0].ID
	if err := bad.Validate(); err == nil {
		t.Error("duplicate block ID accepted")
	}
	bad = sampleTrace()
	bad.Levels = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero levels accepted")
	}
}

func TestSortBlocksAndLookup(t *testing.T) {
	tr := sampleTrace()
	tr.Blocks[0], tr.Blocks[4] = tr.Blocks[4], tr.Blocks[0]
	tr.SortBlocks()
	for i := 1; i < len(tr.Blocks); i++ {
		if tr.Blocks[i].ID < tr.Blocks[i-1].ID {
			t.Fatal("blocks not sorted")
		}
	}
	m := tr.BlockByID()
	if len(m) != 5 {
		t.Fatalf("lookup has %d entries", len(m))
	}
	if m[3].ID != 3 {
		t.Errorf("lookup[3].ID = %d", m[3].ID)
	}
	// Pointers alias the trace: mutating through the map is visible.
	m[3].FV.FPOps = 777
	if tr.BlockByID()[3].FV.FPOps != 777 {
		t.Error("BlockByID does not alias trace storage")
	}
}

func TestTotalsAndInfluence(t *testing.T) {
	tr := sampleTrace()
	// MemOps are 1000..5000: total 15000.
	if got := tr.TotalMemOps(); got != 15000 {
		t.Errorf("TotalMemOps = %g", got)
	}
	if got := tr.TotalFPOps(); got != 5000 {
		t.Errorf("TotalFPOps = %g", got)
	}
	inf := tr.Influence(&tr.Blocks[4])
	if math.Abs(inf-5000.0/15000) > 1e-12 {
		t.Errorf("influence = %g, want 1/3", inf)
	}
	// A block with no memory ops falls back to FP share.
	fpOnly := sampleFV(3)
	fpOnly.MemOps, fpOnly.Loads, fpOnly.Stores = 0, 0, 0
	tr.Blocks = append(tr.Blocks, Block{ID: 99, FV: fpOnly})
	if got := tr.Influence(&tr.Blocks[5]); math.Abs(got-1000.0/6000) > 1e-12 {
		t.Errorf("FP fallback influence = %g, want 1/6", got)
	}
}

func TestInfluenceEmptyTrace(t *testing.T) {
	tr := &Trace{App: "x", CoreCount: 1, Levels: 1}
	b := Block{ID: 1}
	if got := tr.Influence(&b); got != 0 {
		t.Errorf("influence on empty trace = %g", got)
	}
}

func TestSignatureValidate(t *testing.T) {
	s := sampleSignature()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid signature rejected: %v", err)
	}
	bad := sampleSignature()
	bad.Traces = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty signature accepted")
	}
	bad = sampleSignature()
	bad.Traces[1].CoreCount = 64
	if err := bad.Validate(); err == nil {
		t.Error("inconsistent metadata accepted")
	}
}

// TestSignatureUncertaintyValidate pins the one uncertainty rule that the
// JSON path, the store codec and PUT all apply through Validate.
func TestSignatureUncertaintyValidate(t *testing.T) {
	withUncertainty := func() *Signature {
		s := sampleSignature()
		s.Uncertainty = &SignatureUncertainty{Dof: 2}
		for _, id := range []uint64{1, 3, 5} {
			s.Uncertainty.Blocks = append(s.Uncertainty.Blocks,
				BlockUncertainty{ID: id, Vars: make([]float64, NumScalarElements+3)})
		}
		s.Uncertainty.Blocks[1].Vars[4] = 0.25
		return s
	}
	if err := withUncertainty().Validate(); err != nil {
		t.Fatalf("valid uncertainty rejected: %v", err)
	}
	for name, mutate := range map[string]func(s *Signature){
		"dof 0":         func(s *Signature) { s.Uncertainty.Dof = 0 },
		"negative":      func(s *Signature) { s.Uncertainty.Blocks[0].Vars[0] = -1 },
		"NaN":           func(s *Signature) { s.Uncertainty.Blocks[0].Vars[1] = math.NaN() },
		"infinite":      func(s *Signature) { s.Uncertainty.Blocks[0].Vars[2] = math.Inf(1) },
		"short":         func(s *Signature) { s.Uncertainty.Blocks[2].Vars = s.Uncertainty.Blocks[2].Vars[1:] },
		"duplicate":     func(s *Signature) { s.Uncertainty.Blocks[1].ID = 1 },
		"not ascending": func(s *Signature) { s.Uncertainty.Blocks[0].ID = 4 },
		"mixed levels":  func(s *Signature) { s.Traces[2].Levels = 2; s.Traces[2].Blocks = nil },
	} {
		s := withUncertainty()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: invalid uncertainty accepted", name)
		}
	}
}

func TestDominantTrace(t *testing.T) {
	s := sampleSignature()
	d := s.DominantTrace()
	if d == nil || d.Rank != 1 {
		t.Fatalf("dominant rank = %v, want 1", d)
	}
	empty := &Signature{}
	if empty.DominantTrace() != nil {
		t.Error("empty signature should have nil dominant trace")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := sampleSignature()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if got.App != s.App || len(got.Traces) != len(s.Traces) {
		t.Errorf("round trip mismatch")
	}
	if got.Traces[1].Blocks[2].FV.MemOps != s.Traces[1].Blocks[2].FV.MemOps {
		t.Errorf("block data mismatch")
	}
}

func TestReadRejectsInvalid(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString("{")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := ReadJSON(bytes.NewBufferString(`{"app":"x","traces":[]}`)); err == nil {
		t.Error("invalid signature accepted")
	}
}

// Property: Values/FromValues round-trips arbitrary non-negative vectors.
func TestValuesRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		levels := 1 + r.Intn(4)
		vals := make([]float64, NumScalarElements+levels)
		for i := range vals {
			vals[i] = r.Float64() * 1000
		}
		fv, err := FromValues(vals, levels)
		if err != nil {
			return false
		}
		back, err := fv.Values(levels)
		if err != nil {
			return false
		}
		for i := range vals {
			if back[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: influence ratios over a trace sum to 1 when all blocks have
// memory operations.
func TestInfluenceSumsToOneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := &Trace{App: "p", CoreCount: 4, Levels: 2}
		n := 1 + r.Intn(20)
		for i := 0; i < n; i++ {
			fv := sampleFV(2)
			fv.MemOps = 1 + r.Float64()*1e6
			fv.Loads, fv.Stores = fv.MemOps, 0
			tr.Blocks = append(tr.Blocks, Block{ID: uint64(i), FV: fv})
		}
		var sum float64
		for i := range tr.Blocks {
			sum += tr.Influence(&tr.Blocks[i])
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
