package uncert

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tracex/internal/stats"
)

// The differential tests hold the one-table rules to the reference fitter
// of reference_test.go on random series of 2–6 points: exact laws, exact
// ties, near ties, non-positive values and coordinates, and magnitudes
// where some forms overflow. The point rule, the leave-one-out rule and
// the model average must agree with the reference bit for bit: winner,
// parameters, metrics, weights, mean and variance.
//
// One divergence is by design. The leave-one-out rule scores only the
// forms the table holds, so a form that fits every leave-one-out subset
// but not the full series, which the reference scores and then fails or
// returns with NaN metrics when it wins, is not compared.

// diffKinds is the number of series shapes diffSeries draws.
const diffKinds = 8

// diffSeries draws an n-point series of the given shape and a target
// beyond its largest coordinate.
func diffSeries(rng *rand.Rand, n, kind int) (xs, ys []float64, target float64) {
	xs = make([]float64, n)
	x := 1 + math.Floor(rng.Float64()*512)
	for i := range xs {
		xs[i] = x
		x *= 2 + math.Floor(rng.Float64()*3)
	}
	ys = make([]float64, n)
	switch kind {
	case 0: // random positive
		for i := range ys {
			ys[i] = rng.Float64()*100 + 1e-3
		}
	case 1: // an exact law of one form, where several forms tie exactly
		a, b := rng.Float64()*100-20, rng.Float64()*2-1
		law := rng.Intn(6)
		for i, x := range xs {
			switch law {
			case 0:
				ys[i] = a
			case 1:
				ys[i] = a + b*x
			case 2:
				ys[i] = a + b*math.Log(x)
			case 3:
				ys[i] = (a + 21) * math.Exp(-x/(1024*(1+rng.Float64())))
			case 4:
				ys[i] = (a + 21) * math.Pow(x, b)
			case 5:
				ys[i] = a + b*x + 1e-5*x*x
			}
		}
	case 2: // flat, possibly zero or negative: every form ties
		v := []float64{0, -3, 87.4, 1e-9}[rng.Intn(4)]
		for i := range ys {
			ys[i] = v
		}
	case 3: // zeros and mixed signs
		for i := range ys {
			ys[i] = float64(rng.Intn(7) - 3)
		}
	case 4: // repeated small integers
		for i := range ys {
			ys[i] = float64(1 + rng.Intn(2))
		}
	case 5: // a near tie: a log law under 1e-6 noise
		a, b := rng.Float64()*50, rng.Float64()
		for i, x := range xs {
			ys[i] = a + b*math.Log(x) + rng.NormFloat64()*1e-6
		}
	case 6: // non-positive coordinates: log and power do not apply
		xs[0] = -float64(rng.Intn(3))
		for i := range ys {
			ys[i] = rng.Float64()*10 + 1
		}
	case 7: // huge magnitudes and steep growth, where fits overflow
		for i := range ys {
			ys[i] = math.Pow(10, 100+rng.Float64()*200) * float64(1+i*i*i)
		}
	}
	return xs, ys, xs[n-1] * (1.5 + rng.Float64()*6)
}

// sameBits reports whether two floats have identical bit patterns.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkFitTable compares every rule on one series against the reference
// and reports whether the leave-one-out comparison was skipped by design.
func checkFitTable(t *testing.T, forms []stats.Form, xs, ys []float64, target float64) (skippedCV bool) {
	t.Helper()
	tab, err := stats.FitAll(forms, xs, ys)
	ref := newRefSelector(forms)

	want, werr := ref.selectBest(xs, ys)
	if (err != nil) != (werr != nil) {
		t.Fatalf("xs %v ys %v: table error %v, reference error %v", xs, ys, err, werr)
	}
	if err == nil {
		sameFit(t, "point rule", xs, ys, tab.Best(), want)
	}

	wantCV, survivors, cverr := ref.selectCV(xs, ys)
	for _, name := range survivors {
		if !tabHolds(tab, name) {
			skippedCV = true
		}
	}
	if !skippedCV {
		if (err != nil) != (cverr != nil) {
			t.Fatalf("xs %v ys %v: table error %v, reference leave-one-out error %v", xs, ys, err, cverr)
		}
		if err == nil {
			sameFit(t, "leave-one-out rule", xs, ys, tab.BestCV(), wantCV)
		}
	}

	wantAvg, aerr := refAverage(forms, xs, ys, target)
	if err != nil {
		if aerr == nil {
			t.Fatalf("xs %v ys %v: reference averaged a series the table rejects", xs, ys)
		}
		return skippedCV
	}
	got, gerr := Average(tab, target)
	if (gerr != nil) != (aerr != nil) {
		t.Fatalf("xs %v ys %v at %g: average error %v, reference error %v", xs, ys, target, gerr, aerr)
	}
	if gerr == nil {
		sameEstimate(t, xs, ys, target, got, wantAvg)
	}
	return skippedCV
}

func tabHolds(tab stats.Table, name string) bool {
	for _, fr := range tab.Fits {
		if fr.Form.Name() == name {
			return true
		}
	}
	return false
}

func sameFit(t *testing.T, rule string, xs, ys []float64, got, want stats.FitResult) {
	t.Helper()
	gp, wp := got.Model.Params(), want.Model.Params()
	ok := got.Model.Name() == want.Model.Name() && got.Form.Name() == want.Form.Name() &&
		len(gp) == len(wp) && sameBits(got.SSE, want.SSE) &&
		sameBits(got.RMSE, want.RMSE) && sameBits(got.R2, want.R2)
	for i := 0; ok && i < len(gp); i++ {
		ok = sameBits(gp[i], wp[i])
	}
	if !ok {
		t.Fatalf("xs %v ys %v: %s picked %s%v (SSE %g RMSE %g R2 %g), reference %s%v (SSE %g RMSE %g R2 %g)",
			xs, ys, rule, got.Model.Name(), gp, got.SSE, got.RMSE, got.R2,
			want.Model.Name(), wp, want.SSE, want.RMSE, want.R2)
	}
}

func sameEstimate(t *testing.T, xs, ys []float64, target float64, got, want *Estimate) {
	t.Helper()
	ok := sameBits(got.Mean, want.Mean) && sameBits(got.Var, want.Var) &&
		got.Dof == want.Dof && len(got.Forms) == len(want.Forms)
	for i := 0; ok && i < len(got.Forms); i++ {
		g, w := got.Forms[i], want.Forms[i]
		ok = g.Form == w.Form && sameBits(g.Weight, w.Weight) &&
			sameBits(g.Mean, w.Mean) && sameBits(g.Var, w.Var)
	}
	if !ok {
		t.Fatalf("xs %v ys %v at %g: average %+v, reference %+v", xs, ys, target, *got, *want)
	}
}

func TestFitTableMatchesReferenceProperty(t *testing.T) {
	skipped := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for kind := 0; kind < diffKinds; kind++ {
			for _, forms := range [][]stats.Form{nil, stats.ExtendedForms()} {
				xs, ys, target := diffSeries(rng, 2+rng.Intn(5), kind)
				if checkFitTable(t, forms, xs, ys, target) {
					skipped++
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	t.Logf("leave-one-out comparison skipped by design on %d of %d series", skipped, 300*diffKinds*2)
}

// FuzzFitTableMatchesReference drives the differential checks from fuzzed
// seeds: the seed draws the series, n its length (2–6 points) and kind its
// shape; extended adds the power and quadratic forms.
func FuzzFitTableMatchesReference(f *testing.F) {
	for seed := int64(0); seed < diffKinds; seed++ {
		f.Add(seed, uint8(seed), uint8(seed), seed%2 == 0)
	}
	f.Fuzz(func(t *testing.T, seed int64, n, kind uint8, extended bool) {
		var forms []stats.Form
		if extended {
			forms = stats.ExtendedForms()
		}
		xs, ys, target := diffSeries(rand.New(rand.NewSource(seed)), 2+int(n%5), int(kind%diffKinds))
		checkFitTable(t, forms, xs, ys, target)
	})
}

// countingForm is a form that counts its Fit calls.
type countingForm struct {
	stats.Form
	calls *int
}

func (c countingForm) Fit(xs, ys []float64) (stats.Model, error) {
	*c.calls++
	return c.Form.Fit(xs, ys)
}

// Average reads the table's fits and fits nothing itself.
func TestAverageFitsNothing(t *testing.T) {
	calls := 0
	var forms []stats.Form
	for _, f := range stats.ExtendedForms() {
		forms = append(forms, countingForm{Form: f, calls: &calls})
	}
	tab, err := stats.FitAll(forms, []float64{64, 128, 256, 512}, []float64{3.1, 4.2, 4.9, 6.3})
	if err != nil {
		t.Fatal(err)
	}
	calls = 0
	if _, err := Average(tab, 4096); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("Average made %d Fit calls, want 0", calls)
	}
}
