package psins

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"tracex/internal/machine"
	"tracex/internal/trace"
)

// OverlapFactor is the fraction of the smaller of a block's memory and
// floating-point times that hides under the larger one. The paper notes the
// computation model allows "some overlap of memory and floating-point work";
// out-of-order cores overlap most but not all of the minority component.
const OverlapFactor = 0.8

// BlockTime is the convolution's per-basic-block timing decomposition.
type BlockTime struct {
	// BlockID identifies the basic block.
	BlockID uint64
	// MemSeconds is the Equation 1 memory time: refs × bytes / bandwidth.
	MemSeconds float64
	// FPSeconds is the floating-point time at the block's achievable rate.
	FPSeconds float64
	// Seconds is the block's total time after memory/FP overlap.
	Seconds float64
	// BandwidthGBs is the MultiMAPS surface bandwidth used for the block.
	BandwidthGBs float64
}

// Computation is the result of convolving one task's trace with a machine
// profile: the predicted computation time between communication events.
type Computation struct {
	// Seconds is the task's total predicted computation time.
	Seconds float64
	// MemSeconds and FPSeconds decompose Seconds before overlap.
	MemSeconds, FPSeconds float64
	// Blocks holds the per-block decomposition, in trace block order.
	Blocks []BlockTime
}

// blockTime applies Equation 1 to one basic block: memory time is the sum
// over reference types of refs×size/bandwidth, with the block's bandwidth
// found at its location on the MultiMAPS surface (its cache hit rates and
// prefetch traffic); floating-point time uses the ILP-limited arithmetic
// rate.
func blockTime(fv *trace.FeatureVector, prof *machine.Profile) (BlockTime, error) {
	bw, err := prof.LookupBandwidthPF(fv.HitRates, fv.PrefetchPerRef)
	if err != nil {
		return BlockTime{}, err
	}
	bt := BlockTime{BandwidthGBs: bw}
	if fv.MemOps > 0 {
		bt.MemSeconds = fv.MemOps * fv.BytesPerRef / (bw * 1e9)
	}
	if fv.FPOps > 0 {
		bt.FPSeconds = fv.FPOps / prof.FPRate(fv.ILP)
	}
	longer, shorter := bt.MemSeconds, bt.FPSeconds
	if shorter > longer {
		longer, shorter = shorter, longer
	}
	bt.Seconds = longer + (1-OverlapFactor)*shorter
	return bt, nil
}

// BlockCost applies Equation 1 to a single feature vector: the per-block
// convolution step exposed for sensitivity analysis (uncertainty
// propagation perturbs one element at a time and re-evaluates the block's
// time without paying for a full Convolve).
func BlockCost(fv *trace.FeatureVector, prof *machine.Profile) (BlockTime, error) {
	return blockTime(fv, prof)
}

// Convolve maps a single task's trace onto a machine profile, producing the
// predicted computation time for that task (the sum of Equation 1 over all
// basic blocks, plus overlapped floating-point time).
func Convolve(tr *trace.Trace, prof *machine.Profile) (*Computation, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if len(prof.Machine.Caches) != tr.Levels {
		return nil, fmt.Errorf("psins: trace simulated %d cache levels, profile machine %s has %d",
			tr.Levels, prof.Machine.Name, len(prof.Machine.Caches))
	}
	comp := &Computation{Blocks: make([]BlockTime, 0, len(tr.Blocks))}
	for i := range tr.Blocks {
		b := &tr.Blocks[i]
		bt, err := blockTime(&b.FV, prof)
		if err != nil {
			return nil, fmt.Errorf("psins: block %d (%s): %w", b.ID, b.Func, err)
		}
		bt.BlockID = b.ID
		comp.Blocks = append(comp.Blocks, bt)
		comp.Seconds += bt.Seconds
		comp.MemSeconds += bt.MemSeconds
		comp.FPSeconds += bt.FPSeconds
	}
	return comp, nil
}

// CostFromComputation builds a replay ComputeCost from a convolved task:
// each compute event costs the block's convolved time scaled by the event's
// share and by the rank's load factor relative to the convolved task.
// loadFactor may be nil, which treats all ranks as doing identical work
// (the paper's approach of scaling every trace file from the slowest task's
// prediction vector).
func CostFromComputation(comp *Computation, loadFactor func(rank int) float64) ComputeCost {
	// Blocks sorted stably by ID, searched once per compute event; the
	// last block of a repeated ID wins.
	byID := slices.Clone(comp.Blocks)
	slices.SortStableFunc(byID, func(a, b BlockTime) int { return cmp.Compare(a.BlockID, b.BlockID) })
	return func(rank int, blockID uint64, share float64) (float64, error) {
		i := sort.Search(len(byID), func(i int) bool { return byID[i].BlockID > blockID })
		if i == 0 || byID[i-1].BlockID != blockID {
			return 0, fmt.Errorf("psins: compute event references block %d absent from trace", blockID)
		}
		t := byID[i-1].Seconds
		f := 1.0
		if loadFactor != nil {
			f = loadFactor(rank)
			if f < 0 {
				return 0, fmt.Errorf("psins: negative load factor %g for rank %d", f, rank)
			}
		}
		return t * share * f, nil
	}
}
