package tracex

import (
	"context"
	"math"
	"sort"

	"tracex/internal/machine"
	"tracex/internal/mpi"
	"tracex/internal/psins"
	"tracex/internal/trace"
	"tracex/internal/uncert"
)

// This file propagates an extrapolated signature's per-element predictive
// variances (trace.SignatureUncertainty, produced by posterior model
// averaging in internal/extrap) into prediction intervals on the final
// runtime.
//
// The chain has three steps:
//
//  1. Sensitivity. Each uncertain element of each block is perturbed ±1
//     predictive standard deviation around the extrapolated vector and
//     Equation 1 re-evaluated (psins.BlockCost); half the resulting time
//     spread is the element's first-order runtime sensitivity. Squared
//     sensitivities sum into a per-block time variance (elements are
//     fitted independently, so their errors are treated as independent).
//  2. Aggregation. Block variances sum into a total compute-time
//     variance V for the dominant task — again independence across
//     blocks, matching how Convolve sums block times.
//  3. Replay. For each requested level the communication replay is
//     re-run with every block cost uniformly scaled to the Student-t
//     bounds of the compute time, (C ± q·√V)/C. The replay — not a
//     linear approximation — turns compute bounds into runtime bounds,
//     so communication waits that absorb (or amplify) compute shifts are
//     modeled rather than assumed away.
func runtimeIntervals(ctx context.Context, dom *trace.Trace, uc *trace.SignatureUncertainty,
	prof *machine.Profile, comp *psins.Computation, cores int, build func(*mpi.Builder), net psins.Network,
	lf func(int) float64, levels []float64) ([]Interval, error) {
	if uc == nil || comp.Seconds <= 0 {
		return nil, nil
	}
	if levels == nil {
		levels = uncert.DefaultLevels
	}
	cons := trace.ElementConstraints(dom.Levels)
	totalVar := 0.0
	for i := range dom.Blocks {
		b := &dom.Blocks[i]
		vars := uc.VarsFor(b.ID)
		if vars == nil {
			continue
		}
		base, err := b.FV.Values(dom.Levels)
		if err != nil {
			continue
		}
		blockVar := 0.0
		for e, ve := range vars {
			if e >= len(base) || ve <= 0 {
				continue
			}
			sd := math.Sqrt(ve)
			hi := perturbedBlockSeconds(base, e, +sd, cons, dom.Levels, prof)
			lo := perturbedBlockSeconds(base, e, -sd, cons, dom.Levels, prof)
			if math.IsNaN(hi) || math.IsNaN(lo) {
				continue
			}
			d := (hi - lo) / 2
			blockVar += d * d
		}
		totalVar += blockVar
	}
	if totalVar <= 0 {
		return nil, nil
	}
	relSD := math.Sqrt(totalVar) / comp.Seconds

	sorted := make([]float64, 0, len(levels))
	for _, lv := range levels {
		if lv > 0 && lv < 1 {
			sorted = append(sorted, lv)
		}
	}
	sort.Float64s(sorted)
	out := make([]Interval, 0, len(sorted))
	for _, lv := range sorted {
		q := uncert.TQuantile(uc.Dof, lv)
		loScale := 1 - q*relSD
		if loScale < 0 {
			loScale = 0
		}
		loRT, err := replayScaled(ctx, cores, build, net, comp, lf, loScale)
		if err != nil {
			return nil, err
		}
		hiRT, err := replayScaled(ctx, cores, build, net, comp, lf, 1+q*relSD)
		if err != nil {
			return nil, err
		}
		out = append(out, Interval{Level: lv, Lo: loRT, Hi: hiRT})
	}
	return out, nil
}

// perturbedBlockSeconds re-evaluates Equation 1 with one element moved by
// delta and clamped to its physical range. NaN marks a perturbation the
// convolution cannot evaluate (e.g. a hit-rate combination off the
// profile's bandwidth surface); the caller skips that element.
func perturbedBlockSeconds(base []float64, e int, delta float64, cons []trace.Constraint, levels int, prof *machine.Profile) float64 {
	vals := append([]float64(nil), base...)
	v := vals[e] + delta
	if v < cons[e].Min {
		v = cons[e].Min
	}
	if v > cons[e].Max {
		v = cons[e].Max
	}
	vals[e] = v
	fv, err := trace.FromValues(vals, levels)
	if err != nil {
		return math.NaN()
	}
	bt, err := psins.BlockCost(&fv, prof)
	if err != nil {
		return math.NaN()
	}
	return bt.Seconds
}

// replayScaled re-runs the communication replay of the cores-rank program
// that build describes with every convolved block cost multiplied by
// scale, returning the predicted runtime.
func replayScaled(ctx context.Context, cores int, build func(*mpi.Builder), net psins.Network, comp *psins.Computation, lf func(int) float64, scale float64) (float64, error) {
	cost := psins.CostFromComputation(comp, lf)
	scaled := func(rank int, blockID uint64, share float64) (float64, error) {
		c, err := cost(rank, blockID, share)
		if err != nil {
			return 0, err
		}
		return c * scale, nil
	}
	res, err := psins.Replay(ctx, cores, build, net, scaled, nil)
	if err != nil {
		return 0, err
	}
	return res.Runtime, nil
}
