// Package uncert replaces the paper's winner-takes-all canonical-form
// selection with Bayesian posterior model averaging, following the
// Bayesian-inference performance-prediction line of work (PAPERS.md).
//
// For each feature-vector element series the package reads every
// canonical form's fit from the series' fit table (stats.FitAll, the same
// table the point selection reads), converts each fit's residuals into an
// approximate marginal likelihood via the BIC/Laplace approximation, and
// weights the forms by their posterior probability. The extrapolated
// element becomes the weighted mixture mean, and the mixture's predictive
// variance — the weighted sum of each form's own predictive variance plus
// the between-form disagreement — quantifies how wrong the point estimate
// can be at the target count. Quantiles of a Student-t with the residual
// degrees of freedom turn that variance into prediction intervals; with
// the paper's three input counts the dof is 1, which correctly yields the
// very wide tails a two-point residual estimate deserves.
package uncert

import (
	"fmt"
	"math"
	"sort"

	"tracex/internal/stats"
)

// DefaultLevels are the central interval levels reported when a caller
// does not choose its own: the 50%, 90% and 95% bands.
var DefaultLevels = []float64{0.5, 0.9, 0.95}

// MinWeight is the posterior weight below which a form is dropped from
// the mixture (and the rest renormalized). A discarded form's predictive
// divergence at the extrapolation target can be astronomically large
// (e.g. an exponential at 64k cores); letting a 1e-9-probability model
// contribute (f_m - mu)^2 would swamp the variance with noise the
// posterior has already rejected.
const MinWeight = 1e-4

// minRelSD floors each form's predictive standard deviation at this
// fraction of the predicted magnitude. Synthetic or heavily-averaged
// series can fit a canonical form to machine precision, collapsing the
// residual variance to zero; a zero-width interval claims impossible
// certainty about an extrapolation.
const minRelSD = 1e-4

// Interval is one central prediction interval: the true value lies in
// [Lo, Hi] with probability Level under the posterior predictive
// distribution.
type Interval struct {
	Level float64 `json:"level"`
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
}

// FormPosterior is one canonical form's contribution to the mixture.
type FormPosterior struct {
	// Form is the canonical form's name.
	Form string
	// Weight is the posterior probability of the form given the series
	// (BIC approximation, uniform prior). Weights sum to 1 across the
	// kept forms.
	Weight float64
	// Mean is the form's own prediction at the target.
	Mean float64
	// Var is the form's own predictive variance at the target.
	Var float64
}

// Estimate is the model-averaged prediction for one element series at one
// target count.
type Estimate struct {
	// Mean is the posterior-weighted mixture mean at the target.
	Mean float64
	// Var is the mixture's predictive variance: the weighted within-form
	// predictive variances plus the between-form spread.
	Var float64
	// Dof is the residual degrees of freedom of the dominant form
	// (n - k, floored at 1) — the Student-t dof for interval quantiles.
	Dof int
	// Forms lists the kept forms by descending weight (name-ordered on
	// ties, so the output is independent of the input form order).
	Forms []FormPosterior
}

// Top returns the highest-weight form's name ("" for an empty estimate).
func (e *Estimate) Top() string {
	if len(e.Forms) == 0 {
		return ""
	}
	return e.Forms[0].Form
}

// Average returns the posterior model-averaged prediction at x over the
// forms of a series' fit table (stats.FitAll); it fits nothing itself. At
// least two observations are required; forms whose prediction at x is not
// finite are left out, and an error is returned only when none is left.
func Average(t stats.Table, x float64) (*Estimate, error) {
	xs, ys := t.Xs, t.Ys
	if len(xs) != len(ys) || len(xs) < 2 {
		return nil, fmt.Errorf("uncert: need at least 2 paired observations, have %d/%d", len(xs), len(ys))
	}
	n := float64(len(xs))

	// BIC per form from the original-space SSE: n*ln(SSE/n) + k*ln(n).
	// The SSE floor keeps exact interpolants (SSE = 0) finite; because
	// every exact fit hits the same floor, ties then resolve purely on
	// the k*ln(n) parsimony penalty.
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
	cands := make([]cand, 0, len(t.Fits))
	minBIC := math.Inf(1)
	for _, fit := range t.Fits {
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
		cands = append(cands, cand{name: fit.Form.Name(), fit: fit, bic: bic})
		if bic < minBIC {
			minBIC = bic
		}
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("uncert: no form yields a finite prediction at x=%g", x)
	}
	// Fix the candidate order by name before any sum: floating-point
	// addition is not associative, and the weights must not depend on the
	// order the forms were given in.
	sort.Slice(cands, func(i, j int) bool { return cands[i].name < cands[j].name })
	// Posterior weights with a uniform prior: w ∝ exp(-ΔBIC/2).
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
	// Renormalize after the cut and order by weight (name on ties) so the
	// result is deterministic and independent of form order.
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
	kTop := 0
	for _, c := range cands {
		if c.name == kept[0].Form {
			kTop = len(c.fit.Model.Params())
		}
	}
	est.Dof = len(xs) - kTop
	if est.Dof < 1 {
		est.Dof = 1
	}
	return est, nil
}

// predictiveVar approximates one form's predictive variance at x using the
// classic OLS prediction-variance formula s^2*(1 + 1/n + (t-tbar)^2/Stt)
// in the form's own regressor domain t (x for linear-family forms, ln x
// for the logarithmic family). Multiplicative forms (exponential, power)
// are linear in log space, so their residual scale is estimated there and
// mapped back with the delta method (var[f] ≈ f^2 var[ln f]).
func predictiveVar(name string, fit stats.FitResult, xs, ys []float64, x, mean float64) float64 {
	n := float64(len(xs))
	k := float64(len(fit.Model.Params()))
	dof := n - k
	if dof < 1 {
		dof = 1
	}

	// Regressor domain and residual space per form.
	logX := name == "logarithmic" || name == "power"
	logY := name == "exponential" || name == "power"
	t := x
	if logX {
		if x <= 0 {
			logX, t = false, x
		} else {
			t = math.Log(x)
		}
	}

	// Leverage term (0 for the constant form, which has no regressor).
	lev := 0.0
	if name != "constant" {
		var tbar float64
		ts := make([]float64, 0, len(xs))
		ok := true
		for _, xi := range xs {
			ti := xi
			if logX {
				if xi <= 0 {
					ok = false
					break
				}
				ti = math.Log(xi)
			}
			ts = append(ts, ti)
			tbar += ti
		}
		if ok {
			tbar /= n
			var stt float64
			for _, ti := range ts {
				d := ti - tbar
				stt += d * d
			}
			if stt > 0 {
				d := t - tbar
				lev = d * d / stt
			}
		}
	}
	factor := 1 + 1/n + lev

	if logY {
		// Residual scale in log space; delta method back to the original.
		var sse float64
		ok := true
		for i, xi := range xs {
			p := fit.Model.Eval(xi)
			if p == 0 || ys[i] == 0 || (p > 0) != (ys[i] > 0) {
				ok = false
				break
			}
			r := math.Log(math.Abs(ys[i])) - math.Log(math.Abs(p))
			sse += r * r
		}
		if ok {
			s2 := sse / dof
			v := mean * mean * s2 * factor
			return floorVar(v, mean)
		}
	}
	s2 := fit.SSE / dof
	return floorVar(s2*factor, mean)
}

// floorVar applies the minRelSD floor to a predictive variance.
func floorVar(v, mean float64) float64 {
	min := minRelSD * math.Abs(mean)
	if minV := min * min; v < minV {
		return minV
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// TQuantile returns the two-sided Student-t quantile q with
// P(|T_dof| <= q) = level: the half-width multiplier of a central
// prediction interval. Closed forms cover dof 1 and 2; larger dof invert
// the CDF numerically, and very large dof fall back to the normal
// quantile.
func TQuantile(dof int, level float64) float64 {
	if !(level > 0 && level < 1) {
		return 0
	}
	if dof < 1 {
		dof = 1
	}
	p := (1 + level) / 2 // one-sided probability
	switch {
	case dof == 1:
		return math.Tan(math.Pi * (p - 0.5))
	case dof == 2:
		a := 2*p - 1
		return a * math.Sqrt(2/(1-a*a))
	case dof >= 200:
		return math.Sqrt2 * math.Erfinv(level)
	}
	// Bisection on the CDF expressed through the regularized incomplete
	// beta function: P(|T| <= t) = 1 - I_{v/(v+t^2)}(v/2, 1/2).
	v := float64(dof)
	cdf2 := func(t float64) float64 {
		return 1 - betaInc(v/2, 0.5, v/(v+t*t))
	}
	lo, hi := 0.0, 2.0
	for cdf2(hi) < level && hi < 1e8 {
		hi *= 2
	}
	for i := 0; i < 200 && hi-lo > 1e-12*(1+hi); i++ {
		mid := (lo + hi) / 2
		if cdf2(mid) < level {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// betaInc is the regularized incomplete beta function I_x(a, b) via the
// standard continued-fraction expansion (modified Lentz).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(lbeta + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// betaCF evaluates the continued fraction of the incomplete beta function
// (modified Lentz's method).
func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	const eps = 1e-14
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 300; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
