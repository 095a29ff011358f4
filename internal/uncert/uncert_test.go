package uncert

import (
	"math"
	"math/rand"
	"testing"

	"tracex/internal/stats"
)

// averageSeries builds the series' fit table and averages it at x.
func averageSeries(forms []stats.Form, xs, ys []float64, x float64) (*Estimate, error) {
	tab, err := stats.FitAll(forms, xs, ys)
	if err != nil {
		return nil, err
	}
	return Average(tab, x)
}

func TestTQuantileKnownValues(t *testing.T) {
	cases := []struct {
		dof   int
		level float64
		want  float64
	}{
		{1, 0.90, 6.3138},
		{1, 0.50, 1.0000},
		{2, 0.90, 2.9200},
		{2, 0.95, 4.3027},
		{3, 0.90, 2.3534},
		{5, 0.95, 2.5706},
		{10, 0.95, 2.2281},
		{30, 0.90, 1.6973},
		{1000, 0.90, 1.6464},
	}
	for _, c := range cases {
		got := TQuantile(c.dof, c.level)
		if math.Abs(got-c.want) > 2e-3*c.want {
			t.Errorf("TQuantile(%d, %g) = %g, want %g", c.dof, c.level, got, c.want)
		}
	}
	// Monotone in level, shrinking toward the normal quantile in dof.
	if TQuantile(1, 0.95) <= TQuantile(1, 0.9) {
		t.Errorf("quantile not monotone in level")
	}
	z90 := math.Sqrt2 * math.Erfinv(0.90)
	if q := TQuantile(500, 0.90); math.Abs(q-z90) > 0.01 {
		t.Errorf("large-dof quantile %g should approach normal %g", q, z90)
	}
}

func TestAverageWeightsSumToOne(t *testing.T) {
	xs := []float64{4, 8, 16, 32}
	ys := []float64{10.1, 19.8, 40.3, 79.9} // noisy linear
	est, err := averageSeries(nil, xs, ys, 128)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, f := range est.Forms {
		if f.Weight < 0 {
			t.Errorf("negative weight %g for %s", f.Weight, f.Form)
		}
		sum += f.Weight
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("weights sum to %g, want 1", sum)
	}
}

func TestAverageLinearSeriesFavorsLinear(t *testing.T) {
	xs := []float64{4, 8, 16, 32, 64}
	ys := make([]float64, len(xs))
	rng := rand.New(rand.NewSource(7))
	for i, x := range xs {
		ys[i] = 3 + 2*x + rng.NormFloat64()*0.05
	}
	est, err := averageSeries(nil, xs, ys, 256)
	if err != nil {
		t.Fatal(err)
	}
	if est.Top() != "linear" {
		t.Fatalf("top form %q, want linear (forms %+v)", est.Top(), est.Forms)
	}
	want := 3 + 2*256.0
	if math.Abs(est.Mean-want) > 0.05*want {
		t.Errorf("mixture mean %g far from truth %g", est.Mean, want)
	}
	if est.Var <= 0 {
		t.Errorf("predictive variance %g must be positive", est.Var)
	}
}

func TestAverageConstantSeries(t *testing.T) {
	xs := []float64{4, 8, 16}
	ys := []float64{5, 5, 5}
	est, err := averageSeries(nil, xs, ys, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if est.Top() != "constant" {
		t.Fatalf("exact constant series should favor the constant form, got %q", est.Top())
	}
	if math.Abs(est.Mean-5) > 1e-6 {
		t.Errorf("mean %g, want 5", est.Mean)
	}
	// The variance floor keeps even an exact fit from claiming certainty.
	if est.Var <= 0 {
		t.Errorf("variance %g must stay positive under the floor", est.Var)
	}
}

func TestAverageOrderInvariant(t *testing.T) {
	xs := []float64{4, 8, 16, 32}
	ys := []float64{2.2, 3.1, 3.9, 5.2}
	a, err := averageSeries(stats.ExtendedForms(), xs, ys, 512)
	if err != nil {
		t.Fatal(err)
	}
	rev := stats.ExtendedForms()
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	b, err := averageSeries(rev, xs, ys, 512)
	if err != nil {
		t.Fatal(err)
	}
	if a.Mean != b.Mean || a.Var != b.Var || a.Dof != b.Dof || len(a.Forms) != len(b.Forms) {
		t.Fatalf("form order changed the estimate: %+v vs %+v", a, b)
	}
	for i := range a.Forms {
		if a.Forms[i] != b.Forms[i] {
			t.Errorf("form %d differs: %+v vs %+v", i, a.Forms[i], b.Forms[i])
		}
	}
}

func TestAverageBetweenModelSpreadWidens(t *testing.T) {
	// A series that linear and logarithmic explain almost equally well:
	// the mixture variance at a far target must exceed either form's own
	// predictive variance because the two disagree there.
	xs := []float64{8, 16, 32}
	ys := []float64{3.0, 3.6, 4.25}
	est, err := averageSeries(nil, xs, ys, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Forms) < 2 {
		t.Skipf("posterior concentrated on one form: %+v", est.Forms)
	}
	spread := 0.0
	for _, f := range est.Forms {
		d := f.Mean - est.Mean
		spread += f.Weight * d * d
	}
	if spread <= 0 {
		t.Fatalf("no between-model spread despite %d live forms", len(est.Forms))
	}
	if est.Var < spread {
		t.Errorf("mixture variance %g below between-model spread %g", est.Var, spread)
	}
}
