package uncert

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"tracex/internal/stats"
)

// This file keeps the fitter that fitted each series once per rule: a
// selector that fitted every form into a map for point selection,
// refitted the leave-one-out winner on the full series, and a model
// average that fitted every form again. The differential tests hold the
// one-table rules (stats.FitAll, Table.Best, Table.BestCV, Average) to its
// results bit for bit.

// refSelector is the map-based selector.
type refSelector struct {
	forms  []stats.Form
	relTol float64
}

func newRefSelector(forms []stats.Form) *refSelector {
	if len(forms) == 0 {
		forms = stats.CanonicalForms()
	}
	return &refSelector{forms: append([]stats.Form(nil), forms...), relTol: 1e-9}
}

func (s *refSelector) fitAll(xs, ys []float64) (map[string]stats.FitResult, error) {
	if len(xs) != len(ys) || len(xs) == 0 {
		return nil, fmt.Errorf("stats: bad series lengths %d vs %d", len(xs), len(ys))
	}
	out := make(map[string]stats.FitResult, len(s.forms))
	for _, f := range s.forms {
		m, err := f.Fit(xs, ys)
		if err != nil {
			if errors.Is(err, stats.ErrNotApplicable) || errors.Is(err, stats.ErrSingular) {
				continue
			}
			return nil, fmt.Errorf("stats: fitting %s: %w", f.Name(), err)
		}
		pred := make([]float64, len(xs))
		bad := false
		for i, x := range xs {
			pred[i] = m.Eval(x)
			if math.IsNaN(pred[i]) || math.IsInf(pred[i], 0) {
				bad = true
				break
			}
		}
		if bad {
			continue
		}
		out[f.Name()] = stats.FitResult{
			Form:  f,
			Model: m,
			SSE:   stats.SSE(pred, ys),
			RMSE:  stats.RMSE(pred, ys),
			R2:    stats.R2(pred, ys),
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("stats: no canonical form applicable to series")
	}
	return out, nil
}

func (s *refSelector) selectBest(xs, ys []float64) (stats.FitResult, error) {
	all, err := s.fitAll(xs, ys)
	if err != nil {
		return stats.FitResult{}, err
	}
	scale := 0.0
	for _, y := range ys {
		scale += y * y
	}
	if scale == 0 {
		scale = 1
	}
	minSSE := math.Inf(1)
	for _, r := range all {
		if r.SSE < minSSE {
			minSSE = r.SSE
		}
	}
	tol := s.relTol * scale
	if tol < 0 {
		tol = 0
	}
	best := stats.FitResult{}
	for _, r := range all {
		if r.SSE <= minSSE+tol && (best.Model == nil || refSimpler(r.Model, best.Model)) {
			best = r
		}
	}
	return best, nil
}

func refSimpler(a, b stats.Model) bool {
	ka, kb := len(a.Params()), len(b.Params())
	if ka != kb {
		return ka < kb
	}
	return refNameLess(a.Name(), b.Name())
}

func refNameLess(a, b string) bool {
	ra, rb := refRank(a), refRank(b)
	if ra != rb {
		return ra < rb
	}
	return a < b
}

func refRank(name string) int {
	for i, n := range []string{"constant", "linear", "logarithmic", "exponential", "power", "quadratic"} {
		if n == name {
			return i
		}
	}
	return 6
}

// selectCV is the leave-one-out selection over every form, refitting the
// winner on the full series. survivors names the forms it scored.
func (s *refSelector) selectCV(xs, ys []float64) (res stats.FitResult, survivors []string, err error) {
	if len(xs) != len(ys) || len(xs) == 0 {
		return stats.FitResult{}, nil, fmt.Errorf("stats: bad series lengths %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 3 {
		res, err := s.selectBest(xs, ys)
		return res, nil, err
	}
	scale := 0.0
	for _, y := range ys {
		scale += y * y
	}
	if scale == 0 {
		scale = 1
	}
	type scored struct {
		form stats.Form
		cv   float64
		k    int
		ok   bool
	}
	scores := make([]scored, 0, len(s.forms))
	subX := make([]float64, 0, len(xs)-1)
	subY := make([]float64, 0, len(ys)-1)
	for _, f := range s.forms {
		sc := scored{form: f, ok: true}
		for hold := 0; hold < len(xs) && sc.ok; hold++ {
			subX = subX[:0]
			subY = subY[:0]
			for i := range xs {
				if i != hold {
					subX = append(subX, xs[i])
					subY = append(subY, ys[i])
				}
			}
			m, err := f.Fit(subX, subY)
			if err != nil {
				sc.ok = false
				break
			}
			sc.k = len(m.Params())
			pred := m.Eval(xs[hold])
			if math.IsNaN(pred) || math.IsInf(pred, 0) {
				sc.ok = false
				break
			}
			d := pred - ys[hold]
			sc.cv += d * d
		}
		if sc.ok {
			scores = append(scores, sc)
			survivors = append(survivors, f.Name())
		}
	}
	if len(scores) == 0 {
		res, err := s.selectBest(xs, ys)
		return res, nil, err
	}
	minCV := math.Inf(1)
	for _, sc := range scores {
		if sc.cv < minCV {
			minCV = sc.cv
		}
	}
	tol := s.relTol * scale
	if tol < 0 {
		tol = 0
	}
	best := scores[0]
	haveBest := false
	for _, sc := range scores {
		simpler := !haveBest || sc.k < best.k ||
			(sc.k == best.k && refNameLess(sc.form.Name(), best.form.Name()))
		if sc.cv <= minCV+tol && simpler {
			best = sc
			haveBest = true
		}
	}
	m, err := best.form.Fit(xs, ys)
	if err != nil {
		return stats.FitResult{}, survivors, fmt.Errorf("stats: refitting %s on full series: %w", best.form.Name(), err)
	}
	pred := make([]float64, len(xs))
	for i, x := range xs {
		pred[i] = m.Eval(x)
	}
	return stats.FitResult{
		Form:  best.form,
		Model: m,
		SSE:   stats.SSE(pred, ys),
		RMSE:  stats.RMSE(pred, ys),
		R2:    stats.R2(pred, ys),
	}, survivors, nil
}

// refAverage fits every form itself and averages the fits at x.
func refAverage(forms []stats.Form, xs, ys []float64, x float64) (*Estimate, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return nil, fmt.Errorf("uncert: need at least 2 paired observations, have %d/%d", len(xs), len(ys))
	}
	all, err := newRefSelector(forms).fitAll(xs, ys)
	if err != nil {
		return nil, err
	}
	n := float64(len(xs))
	var scale float64
	for _, y := range ys {
		scale += y * y
	}
	sseFloor := 1e-12*scale + 1e-300

	type cand struct {
		name string
		fit  stats.FitResult
		bic  float64
	}
	cands := make([]cand, 0, len(all))
	minBIC := math.Inf(1)
	for name, fit := range all {
		pred := fit.Model.Eval(x)
		if math.IsNaN(pred) || math.IsInf(pred, 0) {
			continue
		}
		k := float64(len(fit.Model.Params()))
		sse := fit.SSE
		if sse < sseFloor {
			sse = sseFloor
		}
		bic := n*math.Log(sse/n) + k*math.Log(n)
		cands = append(cands, cand{name: name, fit: fit, bic: bic})
		if bic < minBIC {
			minBIC = bic
		}
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("uncert: no form yields a finite prediction at x=%g", x)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].name < cands[j].name })
	total := 0.0
	weights := make([]float64, len(cands))
	for i, c := range cands {
		weights[i] = math.Exp(-(c.bic - minBIC) / 2)
		total += weights[i]
	}
	kept := make([]FormPosterior, 0, len(cands))
	for i, c := range cands {
		w := weights[i] / total
		if w < MinWeight {
			continue
		}
		mean := c.fit.Model.Eval(x)
		kept = append(kept, FormPosterior{
			Form:   c.name,
			Weight: w,
			Mean:   mean,
			Var:    predictiveVar(c.name, c.fit, xs, ys, x, mean),
		})
	}
	total = 0
	for _, f := range kept {
		total += f.Weight
	}
	for i := range kept {
		kept[i].Weight /= total
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].Weight != kept[j].Weight {
			return kept[i].Weight > kept[j].Weight
		}
		return kept[i].Form < kept[j].Form
	})
	est := &Estimate{Forms: kept}
	for _, f := range kept {
		est.Mean += f.Weight * f.Mean
	}
	for _, f := range kept {
		d := f.Mean - est.Mean
		est.Var += f.Weight * (f.Var + d*d)
	}
	kTop := len(all[kept[0].Form].Model.Params())
	est.Dof = len(xs) - kTop
	if est.Dof < 1 {
		est.Dof = 1
	}
	return est, nil
}
