package stats

import (
	"math"
	"testing"
)

func TestAbsRelErr(t *testing.T) {
	cases := []struct {
		pred, actual, want float64
	}{
		{100, 100, 0},
		{110, 100, 0.10},
		{90, 100, 0.10},
		{-5, -10, 0.5},
		{0, 0, 0},
	}
	for _, c := range cases {
		if got := AbsRelErr(c.pred, c.actual); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("AbsRelErr(%g,%g) = %g, want %g", c.pred, c.actual, got, c.want)
		}
	}
	if got := AbsRelErr(1, 0); !math.IsInf(got, 1) {
		t.Errorf("AbsRelErr(1,0) = %g, want +Inf", got)
	}
}

func TestSSEAndRMSE(t *testing.T) {
	p := []float64{1, 2, 3}
	a := []float64{1, 4, 3}
	if got := SSE(p, a); got != 4 {
		t.Errorf("SSE = %g, want 4", got)
	}
	if got := RMSE(p, a); !almostEqual(got, math.Sqrt(4.0/3.0), 1e-12) {
		t.Errorf("RMSE = %g", got)
	}
	if got := RMSE(nil, nil); got != 0 {
		t.Errorf("RMSE(empty) = %g, want 0", got)
	}
}

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %g, want 5", got)
	}
	if Mean(nil) != 0 {
		t.Error("an empty slice should yield 0")
	}
}

func TestR2(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if got := R2(a, a); got != 1 {
		t.Errorf("perfect fit R2 = %g, want 1", got)
	}
	mean := []float64{2.5, 2.5, 2.5, 2.5}
	if got := R2(mean, a); !almostEqual(got, 0, 1e-12) {
		t.Errorf("mean predictor R2 = %g, want 0", got)
	}
	// Constant actuals: exact match is 1, anything else 0.
	if got := R2([]float64{3, 3}, []float64{3, 3}); got != 1 {
		t.Errorf("constant exact R2 = %g, want 1", got)
	}
	if got := R2([]float64{3, 4}, []float64{3, 3}); got != 0 {
		t.Errorf("constant mismatch R2 = %g, want 0", got)
	}
}
