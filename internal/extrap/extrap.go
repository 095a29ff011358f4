// Package extrap implements the paper's central contribution: trace
// extrapolation. Given application signatures collected at a series of
// small core counts, it fits each element of each basic block's feature
// vector independently against a set of canonical scaling forms (constant,
// linear, logarithmic, exponential — Section IV of the paper), selects the
// best fit per element, and synthesizes the application signature at a
// large core count that was never traced.
package extrap

import (
	"context"
	"fmt"
	"sort"

	"tracex/internal/obs"
	"tracex/internal/stats"
	"tracex/internal/trace"
	"tracex/internal/uncert"
)

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Options tunes the extrapolation.
type Options struct {
	// Forms are the canonical forms to fit; nil selects the paper's four.
	Forms []stats.Form
	// MinInputs is the minimum number of input core counts (default 3,
	// which the paper found generally adequate).
	MinInputs int
	// CrossValidate selects each element's form by leave-one-out
	// cross-validation instead of training error. It protects
	// high-parameter forms (the future-work polynomial extension) from
	// overfitting the handful of input counts.
	CrossValidate bool
	// Intervals additionally runs posterior model averaging over the
	// forms (internal/uncert): each element's extrapolated value becomes
	// the BIC-weighted mixture mean, its predictive variance is recorded
	// on the synthesized signature (Signature.Uncertainty), and the
	// per-element fits gain Mean/Var/Weights. With Intervals false the
	// point-selection path runs exactly as before, bit for bit.
	Intervals bool
}

func (o Options) withDefaults() Options {
	if o.MinInputs <= 0 {
		o.MinInputs = 3
	}
	return o
}

// Validate checks the option values so that bad inputs fail before any
// simulation or fitting runs. A zero Options is valid (the defaults).
func (o Options) Validate() error {
	if o.MinInputs != 0 && o.MinInputs < 2 {
		return fmt.Errorf("extrap: MinInputs %d below the 2 points a fit needs", o.MinInputs)
	}
	for i, f := range o.Forms {
		if f == nil {
			return fmt.Errorf("extrap: nil form at index %d", i)
		}
	}
	return nil
}

// ElementFit records the fits of one feature-vector element of one basic
// block. Which rule produced Extrapolated is told by Weights: non-nil
// exactly when the posterior mixture produced it, nil when the selected
// form did.
type ElementFit struct {
	// BlockID and Element identify the fitted series.
	BlockID uint64
	Element string
	// Form is the selected canonical form's name: the point rule's winner,
	// or the leave-one-out winner under Options.CrossValidate.
	Form string
	// Params are the selected form's fitted parameters.
	Params []float64
	// R2 and RMSE describe the selected form's fit on the input counts.
	R2, RMSE float64
	// Extrapolated is the (clamped) value produced at the target count:
	// the mixture mean when Weights is non-nil, the selected form's value
	// otherwise.
	Extrapolated float64
	// Mean and Var are the posterior model-averaged prediction and its
	// predictive variance at the target count; Weights are the posterior
	// form weights. All three are set only under Options.Intervals, and
	// only for a series with at least one form finite at the target.
	Mean, Var float64
	Weights   map[string]float64
}

// TopWeight returns the highest-weight form of the mixture and its weight
// (the name first in order on ties), or "" and 0 when the mixture did not
// produce the value.
func (f ElementFit) TopWeight() (form string, weight float64) {
	for name, w := range f.Weights {
		if form == "" || w > weight || (w == weight && name < form) {
			form, weight = name, w
		}
	}
	return form, weight
}

// Result is the product of an extrapolation.
type Result struct {
	// Signature is the synthesized application signature at the target
	// core count (a single trace file: the dominant task, per the paper).
	Signature *trace.Signature
	// Fits records every per-element model selection.
	Fits []ElementFit
	// SkippedBlocks lists blocks absent from at least one input signature
	// and therefore not extrapolated.
	SkippedBlocks []uint64
}

// FitsFor returns the element fits of one block, keyed by element name.
func (r *Result) FitsFor(blockID uint64) map[string]ElementFit {
	m := map[string]ElementFit{}
	for _, f := range r.Fits {
		if f.BlockID == blockID {
			m[f.Element] = f
		}
	}
	return m
}

// Extrapolate fits the scaling of every feature-vector element of the
// dominant task across the input signatures and generates the signature at
// targetCores. Input signatures must describe the same application and
// target machine at distinct core counts; at least opt.MinInputs are
// required, and the target must exceed the largest input (the methodology
// infers *larger*-scale behaviour). Cancelling ctx stops the fitting
// between blocks and returns ctx.Err().
func Extrapolate(ctx context.Context, inputs []*trace.Signature, targetCores int, opt Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	if len(inputs) < opt.MinInputs {
		return nil, fmt.Errorf("extrap: need at least %d input signatures, have %d", opt.MinInputs, len(inputs))
	}
	sorted := append([]*trace.Signature(nil), inputs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].CoreCount < sorted[j].CoreCount })
	first := sorted[0]
	if err := first.Validate(); err != nil {
		return nil, err
	}
	for _, s := range sorted[1:] {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if s.App != first.App || s.Machine != first.Machine {
			return nil, fmt.Errorf("extrap: %w: signature (%s on %s) mixed with (%s on %s)",
				trace.ErrMachineMismatch, s.App, s.Machine, first.App, first.Machine)
		}
	}
	for i := 1; i < len(sorted); i++ {
		if sorted[i].CoreCount == sorted[i-1].CoreCount {
			return nil, fmt.Errorf("extrap: duplicate input core count %d", sorted[i].CoreCount)
		}
	}
	if targetCores <= sorted[len(sorted)-1].CoreCount {
		return nil, fmt.Errorf("extrap: target %d not beyond largest input %d",
			targetCores, sorted[len(sorted)-1].CoreCount)
	}

	// The paper extrapolates the trace of the most computationally
	// demanding MPI task of each run.
	doms := make([]*trace.Trace, len(sorted))
	counts := make([]float64, len(sorted))
	levels := 0
	for i, s := range sorted {
		doms[i] = s.DominantTrace()
		counts[i] = float64(s.CoreCount)
		if i == 0 {
			levels = doms[i].Levels
		} else if doms[i].Levels != levels {
			return nil, fmt.Errorf("extrap: input at %d cores simulated %d cache levels, first input %d",
				s.CoreCount, doms[i].Levels, levels)
		}
	}

	// Align blocks: extrapolate those present in every input.
	maps := make([]map[uint64]*trace.Block, len(doms))
	for i, d := range doms {
		maps[i] = d.BlockByID()
	}
	var ids []uint64
	var skipped []uint64
	for id := range maps[0] {
		inAll := true
		for _, m := range maps[1:] {
			if _, ok := m[id]; !ok {
				inAll = false
				break
			}
		}
		if inAll {
			ids = append(ids, id)
		} else {
			skipped = append(skipped, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	sort.Slice(skipped, func(i, j int) bool { return skipped[i] < skipped[j] })
	if len(ids) == 0 {
		return nil, fmt.Errorf("extrap: no common blocks across the input signatures")
	}

	m := obs.From(ctx)
	sp := m.StartSpan("extrap.fit", fmt.Sprintf("%s→%d", first.App, targetCores))
	defer sp.End()
	m.Counter("extrap.extrapolations").Inc()
	m.Counter("extrap.blocks").Add(uint64(len(ids)))
	m.Counter("extrap.blocks_skipped").Add(uint64(len(skipped)))
	fits := m.Counter("extrap.fits")

	names := trace.ElementNames(levels)
	cons := trace.ElementConstraints(levels)
	res := &Result{SkippedBlocks: skipped}
	outTrace := trace.Trace{
		App:       first.App,
		CoreCount: targetCores,
		Rank:      0,
		Machine:   first.Machine,
		Levels:    levels,
	}
	var uc *trace.SignatureUncertainty
	if opt.Intervals {
		uc = &trace.SignatureUncertainty{Dof: maxInt(1, len(counts)-2)}
	}
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Per-element series across the input counts.
		series := make([][]float64, len(names))
		for i := range doms {
			vals, err := maps[i][id].FV.Values(levels)
			if err != nil {
				return nil, fmt.Errorf("extrap: block %d at %d cores: %w", id, int(counts[i]), err)
			}
			for e, v := range vals {
				series[e] = append(series[e], v)
			}
		}
		outVals := make([]float64, len(names))
		var blockVars []float64
		if opt.Intervals {
			blockVars = make([]float64, len(names))
		}
		for e := range names {
			// One fit table per element: the selection rule and the model
			// averaging below both read it.
			table, err := stats.FitAll(opt.Forms, counts, series[e])
			if err != nil {
				return nil, fmt.Errorf("extrap: block %d element %s: %w", id, names[e], err)
			}
			var fit stats.FitResult
			if opt.CrossValidate {
				fit = table.BestCV()
			} else {
				fit = table.Best()
			}
			v := fit.Model.Eval(float64(targetCores))
			ef := ElementFit{
				BlockID: id,
				Element: names[e],
				Form:    fit.Model.Name(),
				Params:  fit.Model.Params(),
				R2:      fit.R2,
				RMSE:    fit.RMSE,
			}
			if opt.Intervals {
				// Posterior model averaging: the element's value becomes
				// the BIC-weighted mixture mean and its predictive
				// variance rides on the synthesized signature. A series no
				// form can average (all predictions non-finite at the
				// target) falls back to the point selection with zero
				// recorded variance.
				est, uerr := uncert.Average(table, float64(targetCores))
				if uerr == nil {
					v = est.Mean
					ef.Mean, ef.Var = est.Mean, est.Var
					ef.Weights = make(map[string]float64, len(est.Forms))
					for _, fp := range est.Forms {
						ef.Weights[fp.Form] = fp.Weight
					}
					blockVars[e] = est.Var
					if est.Dof < uc.Dof {
						uc.Dof = est.Dof
					}
					m.Counter("uncert.weights." + est.Top()).Inc()
				}
			}
			if v < cons[e].Min {
				v = cons[e].Min
			}
			if v > cons[e].Max {
				v = cons[e].Max
			}
			outVals[e] = v
			ef.Extrapolated = v
			fits.Inc()
			m.Counter("extrap.form." + fit.Model.Name()).Inc()
			res.Fits = append(res.Fits, ef)
		}
		if opt.Intervals {
			uc.Blocks = append(uc.Blocks, trace.BlockUncertainty{ID: id, Vars: blockVars})
		}
		enforceConsistency(outVals, levels)
		fv, err := trace.FromValues(outVals, levels)
		if err != nil {
			return nil, fmt.Errorf("extrap: block %d: %w", id, err)
		}
		proto := maps[0][id]
		outTrace.Blocks = append(outTrace.Blocks, trace.Block{
			ID:   id,
			Func: proto.Func,
			File: proto.File,
			Line: proto.Line,
			FV:   fv,
		})
	}
	outTrace.SortBlocks()
	res.Signature = &trace.Signature{
		App:         first.App,
		CoreCount:   targetCores,
		Machine:     first.Machine,
		Traces:      []trace.Trace{outTrace},
		Uncertainty: uc,
	}
	if err := res.Signature.Validate(); err != nil {
		return nil, fmt.Errorf("extrap: synthesized signature invalid: %w", err)
	}
	return res, nil
}

// enforceConsistency repairs physical invariants that independent
// per-element extrapolation can violate: cumulative hit rates must be
// non-decreasing across levels, loads+stores cannot exceed total memory
// operations, and the FP composition cannot exceed total FP operations.
func enforceConsistency(vals []float64, levels int) {
	// Monotone cumulative hit rates.
	for i := trace.NumScalarElements + 1; i < trace.NumScalarElements+levels; i++ {
		if vals[i] < vals[i-1] {
			vals[i] = vals[i-1]
		}
	}
	// Loads+stores ≤ mem ops (rescale proportionally on violation).
	mem, loads, stores := vals[4], vals[5], vals[6]
	if sum := loads + stores; sum > mem && sum > 0 {
		scale := mem / sum
		vals[5] *= scale
		vals[6] *= scale
	}
	// FP composition ≤ FP ops.
	fp := vals[0]
	if sum := vals[1] + vals[2] + vals[3]; sum > fp && sum > 0 {
		scale := fp / sum
		vals[1] *= scale
		vals[2] *= scale
		vals[3] *= scale
	}
}
