package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSelectCVRejectsOverfittingQuadratic(t *testing.T) {
	// Three points from a noisy logarithmic law: plain SSE selection with
	// extended forms picks the quadratic (exact interpolation), which
	// extrapolates wildly; LOOCV must reject it.
	xs := []float64{1024, 2048, 4096}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = (1e9 + 4e8*math.Log(x)) * (1 + 0.01*math.Sin(x))
	}
	tab, err := FitAll(ExtendedForms(), xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if plain := tab.Best(); plain.Model.Name() != "quadratic" {
		t.Logf("note: plain selection picked %s (quadratic not strictly best here)", plain.Model.Name())
	}
	cv := tab.BestCV()
	if cv.Model.Name() == "quadratic" {
		t.Errorf("LOOCV selected the overfitting quadratic")
	}
	// The CV choice must extrapolate sanely: within 25 % of the generating
	// law at 4× beyond the inputs.
	truth := 1e9 + 4e8*math.Log(16384)
	if e := AbsRelErr(cv.Model.Eval(16384), truth); e > 0.25 {
		t.Errorf("CV extrapolation error %.1f%% at 16384", 100*e)
	}
}

func TestSelectCVRecoversTrueForm(t *testing.T) {
	// Four exact points per generating law: LOOCV must recover it (or an
	// equally-predictive simpler alternative).
	xs := []float64{96, 384, 1536, 6144}
	gens := map[string]func(float64) float64{
		"constant":    func(x float64) float64 { return 42 },
		"linear":      func(x float64) float64 { return 5 + 0.01*x },
		"logarithmic": func(x float64) float64 { return 3 + 2*math.Log(x) },
		"exponential": func(x float64) float64 { return 4 * math.Exp(-x/4096) },
	}
	for want, gen := range gens {
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = gen(x)
		}
		r, err := bestCV(nil, xs, ys)
		if err != nil {
			t.Fatalf("%s: %v", want, err)
		}
		if r.Model.Name() != want {
			t.Errorf("generating law %s: LOOCV selected %s", want, r.Model.Name())
		}
	}
}

func TestSelectCVFallsBackOnTwoPoints(t *testing.T) {
	r, err := bestCV(nil, []float64{1, 2}, []float64{3, 3})
	if err != nil {
		t.Fatalf("SelectCV: %v", err)
	}
	if r.Model.Name() != "constant" {
		t.Errorf("selected %s", r.Model.Name())
	}
}

func TestSelectCVErrors(t *testing.T) {
	if _, err := bestCV(nil, nil, nil); err == nil {
		t.Error("empty series accepted")
	}
	if _, err := bestCV(nil, []float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched series accepted")
	}
}

// Property: on exact canonical data with ≥4 points, LOOCV never selects a
// model whose held-out error exceeds the true form's (which is ~0), and the
// returned model reproduces the inputs.
func TestSelectCVSelfConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		xs := []float64{128, 512, 2048, 8192}
		a := 1 + r.Float64()*10
		b := 1e-4 + r.Float64()*1e-3
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = a + b*x // linear law
		}
		res, err := bestCV(ExtendedForms(), xs, ys)
		if err != nil {
			return false
		}
		for i, x := range xs {
			if AbsRelErr(res.Model.Eval(x), ys[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// subsetOnly is a form that fits like Linear on leave-one-out subsets but
// not on the full four-point series: there it is not applicable, or (nan)
// its model is NaN at every input. Its models report no parameters, so it
// wins every leave-one-out tie on parsimony.
type subsetOnly struct{ nan bool }

func (subsetOnly) Name() string { return "subset-only" }

func (s subsetOnly) Fit(xs, ys []float64) (Model, error) {
	m, err := Linear{}.Fit(xs, ys)
	if err != nil {
		return nil, err
	}
	if len(xs) < 4 {
		return &paramModel{name: "subset-only", eval: func(_ []float64, x float64) float64 { return m.Eval(x) }}, nil
	}
	if !s.nan {
		return nil, ErrNotApplicable
	}
	return &paramModel{name: "subset-only", eval: func([]float64, float64) float64 { return math.NaN() }}, nil
}

// A form that fits every leave-one-out subset but not the full series is
// not in the fit table, so the leave-one-out rule does not score it: the
// winner is a table form with the table's finite metrics. A rule that
// scored it would pick it (it ties linear on score and wins on
// parsimony), then fail to refit it, or return it with NaN metrics.
func TestBestCVScoresOnlyTableForms(t *testing.T) {
	xs := []float64{128, 256, 512, 1024}
	ys := []float64{7, 9, 13, 21}
	for _, nan := range []bool{false, true} {
		tab, err := FitAll(append(CanonicalForms(), subsetOnly{nan: nan}), xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := fitOf(tab, "subset-only"); ok {
			t.Fatalf("nan=%v: the fit table holds a form that does not fit the full series", nan)
		}
		got := tab.BestCV()
		want, ok := fitOf(tab, got.Form.Name())
		if !ok || got.Model != want.Model {
			t.Fatalf("nan=%v: BestCV returned %s, not a table entry", nan, got.Model.Name())
		}
		if got.Model.Name() != "linear" {
			t.Errorf("nan=%v: BestCV picked %s, want linear (the exact line)", nan, got.Model.Name())
		}
		if math.IsNaN(got.SSE) || math.IsNaN(got.RMSE) || math.IsNaN(got.R2) {
			t.Errorf("nan=%v: BestCV metrics SSE %g RMSE %g R2 %g, want finite", nan, got.SSE, got.RMSE, got.R2)
		}
	}
}
