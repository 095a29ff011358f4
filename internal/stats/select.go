package stats

import (
	"errors"
	"fmt"
	"math"
)

// FitResult is one form's fit to a series: the fitted model and its
// goodness of fit on that series.
type FitResult struct {
	Form  Form
	Model Model
	SSE   float64
	RMSE  float64
	R2    float64
}

// Table is the fit table of one series: the fit of every form applicable
// to it, in the order the forms were given. Point selection (Best),
// leave-one-out selection (BestCV) and posterior model averaging
// (uncert.Average) all read the same table, so each form is fitted to a
// series once.
type Table struct {
	Xs, Ys []float64
	Fits   []FitResult
}

// tieTolerance is the relative slack, as a fraction of the series' sum of
// squares, within which two scores tie. Ties resolve toward the simpler
// form, which settles the degenerate exact-fit case of three observations.
const tieTolerance = 1e-9

// FitAll fits every form to the series and returns its fit table. A nil or
// empty forms slice fits the paper's four canonical forms. Forms not
// applicable to the data (ErrNotApplicable, ErrSingular, or a model that
// is non-finite at an input) are left out; any other fit error fails the
// table, and so does a table with no form in it.
func FitAll(forms []Form, xs, ys []float64) (Table, error) {
	if len(xs) != len(ys) || len(xs) == 0 {
		return Table{}, fmt.Errorf("stats: bad series lengths %d vs %d", len(xs), len(ys))
	}
	if len(forms) == 0 {
		forms = CanonicalForms()
	}
	t := Table{Xs: xs, Ys: ys, Fits: make([]FitResult, 0, len(forms))}
	pred := make([]float64, len(xs))
	for _, f := range forms {
		m, err := f.Fit(xs, ys)
		if err != nil {
			if errors.Is(err, ErrNotApplicable) || errors.Is(err, ErrSingular) {
				continue
			}
			return Table{}, fmt.Errorf("stats: fitting %s: %w", f.Name(), err)
		}
		finite := true
		for i, x := range xs {
			pred[i] = m.Eval(x)
			if math.IsNaN(pred[i]) || math.IsInf(pred[i], 0) {
				finite = false
				break
			}
		}
		if !finite {
			continue
		}
		t.Fits = append(t.Fits, FitResult{
			Form:  f,
			Model: m,
			SSE:   SSE(pred, ys),
			RMSE:  RMSE(pred, ys),
			R2:    R2(pred, ys),
		})
	}
	if len(t.Fits) == 0 {
		return Table{}, fmt.Errorf("stats: no canonical form applicable to series")
	}
	return t, nil
}

// Best is the point rule: the fit with the lowest SSE, with ties resolved
// toward the simpler form. This is the paper's "the best of those fits is
// used" (Section IV).
func (t Table) Best() FitResult {
	return t.Fits[tiedBest(t, func(i int) float64 { return t.Fits[i].SSE }, tieTolerance)]
}

// BestCV is the leave-one-out rule: each form in the table is refitted
// with one observation held out and scored by its squared error at the
// held-out point, and the lowest total wins, ties resolved toward the
// simpler form. It penalizes forms that interpolate the training points
// exactly but extrapolate wildly, the failure mode of a quadratic through
// three points. A form that cannot be fitted on some subset is not scored.
// The winner's fit is its table entry on the full series. With fewer than
// three observations, or when no form survives, BestCV is Best.
func (t Table) BestCV() FitResult {
	n := len(t.Xs)
	if n < 3 {
		return t.Best()
	}
	// NaN marks a form the rule does not score: it never compares below
	// the minimum nor within the tolerance of it.
	scores := make([]float64, len(t.Fits))
	subX := make([]float64, 0, n-1)
	subY := make([]float64, 0, n-1)
	for i, fr := range t.Fits {
		cv := 0.0
		for hold := 0; hold < n; hold++ {
			subX, subY = subX[:0], subY[:0]
			for j := range t.Xs {
				if j != hold {
					subX = append(subX, t.Xs[j])
					subY = append(subY, t.Ys[j])
				}
			}
			m, err := fr.Form.Fit(subX, subY)
			if err != nil {
				cv = math.NaN()
				break
			}
			pred := m.Eval(t.Xs[hold])
			if math.IsNaN(pred) || math.IsInf(pred, 0) {
				cv = math.NaN()
				break
			}
			d := pred - t.Ys[hold]
			cv += d * d
		}
		scores[i] = cv
	}
	if i := tiedBest(t, func(i int) float64 { return scores[i] }, tieTolerance); i >= 0 {
		return t.Fits[i]
	}
	return t.Best()
}

// tiedBest returns the index of the winning fit under score: among the fits
// whose score lies within relTol·Σy² of the lowest, the simplest. Taking
// the tied set first makes the winner a pure function of the fits; a
// sequential "beats the incumbent by more than the tolerance" walk depends
// on the form order once three or more forms cluster within multiples of
// the tolerance. NaN scores are never chosen; -1 means every score was NaN.
func tiedBest(t Table, score func(i int) float64, relTol float64) int {
	scale := 0.0
	for _, y := range t.Ys {
		scale += y * y
	}
	if scale == 0 {
		scale = 1
	}
	tol := relTol * scale
	if tol < 0 {
		tol = 0
	}
	min := math.Inf(1)
	for i := range t.Fits {
		if s := score(i); s < min {
			min = s
		}
	}
	best := -1
	for i := range t.Fits {
		if score(i) <= min+tol && (best < 0 || simplerModel(t.Fits[i].Model, t.Fits[best].Model)) {
			best = i
		}
	}
	return best
}

// simplerModel reports whether a should win a tie against b: fewer
// parameters first (parsimony), then the canonical complexity rank of the
// form name, then the name itself. This is a strict total order that is a
// pure function of the competing forms, so tie resolution cannot depend
// on iteration or declaration order.
func simplerModel(a, b Model) bool {
	ka, kb := len(a.Params()), len(b.Params())
	if ka != kb {
		return ka < kb
	}
	return formNameLess(a.Name(), b.Name())
}

// formNameLess orders form names for tie-breaking: the in-tree forms rank
// by their documented simplest-first complexity (the CanonicalForms /
// ExtendedForms order), and unknown user forms fall back to lexicographic
// order after them.
func formNameLess(a, b string) bool {
	ra, rb := formRank(a), formRank(b)
	if ra != rb {
		return ra < rb
	}
	return a < b
}

func formRank(name string) int {
	switch name {
	case "constant":
		return 0
	case "linear":
		return 1
	case "logarithmic":
		return 2
	case "exponential":
		return 3
	case "power":
		return 4
	case "quadratic":
		return 5
	}
	return 6
}
