package stats

import (
	"errors"
	"fmt"
	"math"
)

// Model is a fitted scaling model y = f(x), where x is a core count and y is
// one element of a basic block's feature vector.
type Model interface {
	// Name identifies the canonical form that produced the model.
	Name() string
	// Eval returns the modeled value at x.
	Eval(x float64) float64
	// Params returns the fitted parameters (form-specific ordering).
	Params() []float64
}

// Form is a family of canonical functions that can be fitted to a series.
// The paper uses constant, linear, logarithmic and exponential; power and
// quadratic implement the paper's future-work extension.
type Form interface {
	// Name is the canonical form's identifier ("constant", "linear", ...).
	Name() string
	// Fit fits the form to the paired series. It returns an error when the
	// form is not applicable to the data (for example, an exponential fit
	// over non-positive values) or the system is degenerate.
	Fit(xs, ys []float64) (Model, error)
}

// ErrNotApplicable reports that a canonical form cannot represent the given
// data (for example a logarithmic fit with x ≤ 0).
var ErrNotApplicable = errors.New("stats: form not applicable to data")

func checkSeries(xs, ys []float64, minN int) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("stats: mismatched series lengths %d vs %d", len(xs), len(ys))
	}
	if len(xs) < minN {
		return fmt.Errorf("stats: need at least %d points, have %d", minN, len(xs))
	}
	for i := range xs {
		if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) || math.IsNaN(ys[i]) || math.IsInf(ys[i], 0) {
			return fmt.Errorf("stats: non-finite value at index %d", i)
		}
	}
	return nil
}

// paramModel is the shared implementation of Model.
type paramModel struct {
	name   string
	params []float64
	eval   func(p []float64, x float64) float64
}

func (m *paramModel) Name() string           { return m.name }
func (m *paramModel) Eval(x float64) float64 { return m.eval(m.params, x) }
func (m *paramModel) Params() []float64      { return append([]float64(nil), m.params...) }

func (m *paramModel) String() string {
	return fmt.Sprintf("%s%v", m.name, m.params)
}

// Constant fits y = a where a is the sample mean.
type Constant struct{}

// Name implements Form.
func (Constant) Name() string { return "constant" }

// Fit implements Form.
func (Constant) Fit(xs, ys []float64) (Model, error) {
	if err := checkSeries(xs, ys, 1); err != nil {
		return nil, err
	}
	return &paramModel{
		name:   "constant",
		params: []float64{Mean(ys)},
		eval:   func(p []float64, _ float64) float64 { return p[0] },
	}, nil
}

// Linear fits y = a + b·x by ordinary least squares.
type Linear struct{}

// Name implements Form.
func (Linear) Name() string { return "linear" }

// Fit implements Form.
func (Linear) Fit(xs, ys []float64) (Model, error) {
	if err := checkSeries(xs, ys, 2); err != nil {
		return nil, err
	}
	a, b, err := OLS(xs, ys)
	if err != nil {
		return nil, err
	}
	return &paramModel{
		name:   "linear",
		params: []float64{a, b},
		eval:   func(p []float64, x float64) float64 { return p[0] + p[1]*x },
	}, nil
}

// Logarithmic fits y = a + b·ln(x). All x must be positive.
type Logarithmic struct{}

// Name implements Form.
func (Logarithmic) Name() string { return "logarithmic" }

// Fit implements Form.
func (Logarithmic) Fit(xs, ys []float64) (Model, error) {
	if err := checkSeries(xs, ys, 2); err != nil {
		return nil, err
	}
	lx := make([]float64, len(xs))
	for i, x := range xs {
		if x <= 0 {
			return nil, fmt.Errorf("%w: logarithmic form requires x > 0, got %g", ErrNotApplicable, x)
		}
		lx[i] = math.Log(x)
	}
	a, b, err := OLS(lx, ys)
	if err != nil {
		return nil, err
	}
	return &paramModel{
		name:   "logarithmic",
		params: []float64{a, b},
		eval: func(p []float64, x float64) float64 {
			if x <= 0 {
				return math.NaN()
			}
			return p[0] + p[1]*math.Log(x)
		},
	}, nil
}

// Exponential fits y = a·e^(b·x). It seeds the parameters with a
// log-transform linear fit (requires all y of one sign) and refines them
// with a few Gauss-Newton iterations on the untransformed residuals, which
// removes most of the log-domain bias.
type Exponential struct{}

// Name implements Form.
func (Exponential) Name() string { return "exponential" }

// Fit implements Form.
func (Exponential) Fit(xs, ys []float64) (Model, error) {
	if err := checkSeries(xs, ys, 2); err != nil {
		return nil, err
	}
	sign := 1.0
	if ys[0] < 0 {
		sign = -1
	}
	ly := make([]float64, len(ys))
	for i, y := range ys {
		v := y * sign
		if v <= 0 {
			return nil, fmt.Errorf("%w: exponential form requires same-sign nonzero y", ErrNotApplicable)
		}
		ly[i] = math.Log(v)
	}
	la, b, err := OLS(xs, ly)
	if err != nil {
		return nil, err
	}
	a := sign * math.Exp(la)
	a, b = refineExponential(xs, ys, a, b)
	if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return nil, ErrSingular
	}
	return &paramModel{
		name:   "exponential",
		params: []float64{a, b},
		eval:   func(p []float64, x float64) float64 { return p[0] * math.Exp(p[1]*x) },
	}, nil
}

// refineExponential runs Gauss-Newton on y = a·e^(bx), keeping the best
// parameters seen. It is deliberately conservative: a handful of iterations,
// rejecting steps that increase the SSE.
func refineExponential(xs, ys []float64, a, b float64) (float64, float64) {
	sse := func(a, b float64) float64 {
		var s float64
		for i, x := range xs {
			d := ys[i] - a*math.Exp(b*x)
			s += d * d
		}
		return s
	}
	bestA, bestB, bestS := a, b, sse(a, b)
	for iter := 0; iter < 12; iter++ {
		// Jacobian columns: ∂f/∂a = e^(bx), ∂f/∂b = a·x·e^(bx).
		var j11, j12, j22, g1, g2 float64
		for i, x := range xs {
			e := math.Exp(b * x)
			r := ys[i] - a*e
			da := e
			db := a * x * e
			j11 += da * da
			j12 += da * db
			j22 += db * db
			g1 += da * r
			g2 += db * r
		}
		sol, err := SolveLinear([][]float64{{j11, j12}, {j12, j22}}, []float64{g1, g2})
		if err != nil {
			break
		}
		// Damped step with simple backtracking.
		step := 1.0
		improved := false
		for t := 0; t < 4; t++ {
			na, nb := a+step*sol[0], b+step*sol[1]
			if s := sse(na, nb); s < bestS {
				a, b, bestA, bestB, bestS = na, nb, na, nb, s
				improved = true
				break
			}
			step /= 4
		}
		if !improved || bestS == 0 {
			break
		}
	}
	return bestA, bestB
}

// Power fits y = a·x^b via log-log least squares (future-work form).
// Requires x > 0 and y of one sign.
type Power struct{}

// Name implements Form.
func (Power) Name() string { return "power" }

// Fit implements Form.
func (Power) Fit(xs, ys []float64) (Model, error) {
	if err := checkSeries(xs, ys, 2); err != nil {
		return nil, err
	}
	sign := 1.0
	if ys[0] < 0 {
		sign = -1
	}
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 {
			return nil, fmt.Errorf("%w: power form requires x > 0", ErrNotApplicable)
		}
		v := ys[i] * sign
		if v <= 0 {
			return nil, fmt.Errorf("%w: power form requires same-sign nonzero y", ErrNotApplicable)
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(v)
	}
	la, b, err := OLS(lx, ly)
	if err != nil {
		return nil, err
	}
	a := sign * math.Exp(la)
	return &paramModel{
		name:   "power",
		params: []float64{a, b},
		eval: func(p []float64, x float64) float64 {
			if x <= 0 {
				return math.NaN()
			}
			return p[0] * math.Pow(x, p[1])
		},
	}, nil
}

// Quadratic fits y = a + b·x + c·x² (the paper's future-work polynomial
// form). It needs at least three points: on fewer it is not applicable, so
// a fit table over a two-point series leaves it out.
type Quadratic struct{}

// Name implements Form.
func (Quadratic) Name() string { return "quadratic" }

// Fit implements Form.
func (Quadratic) Fit(xs, ys []float64) (Model, error) {
	if err := checkSeries(xs, ys, 0); err != nil {
		return nil, err
	}
	if len(xs) < 3 {
		return nil, fmt.Errorf("%w: quadratic form needs at least 3 points, have %d", ErrNotApplicable, len(xs))
	}
	c, err := PolyFit(xs, ys, 2)
	if err != nil {
		return nil, err
	}
	return &paramModel{
		name:   "quadratic",
		params: c,
		eval:   func(p []float64, x float64) float64 { return p[0] + x*(p[1]+x*p[2]) },
	}, nil
}

// CanonicalForms returns the four forms used in the paper, in selection
// tie-break order (simplest first).
func CanonicalForms() []Form {
	return []Form{Constant{}, Linear{}, Logarithmic{}, Exponential{}}
}

// ExtendedForms returns the canonical forms plus the future-work extensions
// (power law and quadratic).
func ExtendedForms() []Form {
	return append(CanonicalForms(), Power{}, Quadratic{})
}
