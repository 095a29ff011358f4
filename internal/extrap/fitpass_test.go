package extrap

import (
	"context"
	"testing"

	"tracex/internal/stats"
	"tracex/internal/trace"
)

// countingForm is a form that counts its Fit calls.
type countingForm struct {
	stats.Form
	calls *int
}

func (c countingForm) Fit(xs, ys []float64) (stats.Model, error) {
	*c.calls++
	return c.Form.Fit(xs, ys)
}

// countingForms wraps the canonical forms so every Fit adds to calls.
func countingForms(calls *int) []stats.Form {
	var out []stats.Form
	for _, f := range stats.CanonicalForms() {
		out = append(out, countingForm{Form: f, calls: calls})
	}
	return out
}

// With intervals on or off, every form is fitted to each element's series
// once: selection and model averaging read one fit table.
func TestExtrapolateFitsEachFormOncePerElement(t *testing.T) {
	inputs := []*trace.Signature{synthSignature(1024), synthSignature(2048), synthSignature(4096)}
	for _, intervals := range []bool{false, true} {
		calls := 0
		forms := countingForms(&calls)
		res, err := Extrapolate(context.Background(), inputs, 8192, Options{Forms: forms, Intervals: intervals})
		if err != nil {
			t.Fatal(err)
		}
		if want := len(forms) * len(res.Fits); calls != want {
			t.Errorf("intervals=%v: %d Fit calls for %d elements, want %d (one per form per element)",
				intervals, calls, len(res.Fits), want)
		}
	}
}

// Weights is non-nil exactly when the posterior mixture produced
// Extrapolated: intervals off, every value is the selected form's; on,
// every value is the mixture mean, and the top-weight form is reported.
func TestElementFitWeightsTellWhichRuleProducedTheValue(t *testing.T) {
	counts := []int{1024, 2048, 4096}
	const target = 8192
	var inputs []*trace.Signature
	series := make([][]float64, len(trace.ElementNames(3)))
	var xs []float64
	for _, p := range counts {
		sig := synthSignature(p)
		inputs = append(inputs, sig)
		vals, err := sig.Traces[0].Blocks[0].FV.Values(3)
		if err != nil {
			t.Fatal(err)
		}
		for e, v := range vals {
			series[e] = append(series[e], v)
		}
		xs = append(xs, float64(p))
	}
	cons := trace.ElementConstraints(3)
	clamp := func(e int, v float64) float64 {
		if v < cons[e].Min {
			v = cons[e].Min
		}
		if v > cons[e].Max {
			v = cons[e].Max
		}
		return v
	}
	moved := 0
	for _, intervals := range []bool{false, true} {
		res, err := Extrapolate(context.Background(), inputs, target, Options{Intervals: intervals})
		if err != nil {
			t.Fatal(err)
		}
		for e, f := range res.Fits {
			table, err := stats.FitAll(nil, xs, series[e])
			if err != nil {
				t.Fatal(err)
			}
			point := clamp(e, table.Best().Model.Eval(target))
			if !intervals {
				if f.Weights != nil || f.Extrapolated != point {
					t.Errorf("%s: intervals off gave weights %v and %g, want nil and the point value %g",
						f.Element, f.Weights, f.Extrapolated, point)
				}
				if form, w := f.TopWeight(); form != "" || w != 0 {
					t.Errorf("%s: TopWeight = %q %g without a mixture", f.Element, form, w)
				}
				continue
			}
			if f.Weights == nil || f.Extrapolated != clamp(e, f.Mean) {
				t.Errorf("%s: intervals on gave weights %v and %g, want the clamped mixture mean %g",
					f.Element, f.Weights, f.Extrapolated, clamp(e, f.Mean))
			}
			form, w := f.TopWeight()
			for name, other := range f.Weights {
				if other > w || (other == w && name < form) {
					t.Errorf("%s: TopWeight %s %g, but %s has %g", f.Element, form, w, name, other)
				}
			}
			if f.Extrapolated != point {
				moved++
			}
		}
	}
	if moved == 0 {
		t.Error("the mixture mean equals the point value on every element; the test shows nothing")
	}
}
