// Package trace defines the application-signature data model of the PMaC
// framework: per-basic-block feature vectors, per-MPI-task trace files, and
// whole-application signatures, together with their JSON serialization.
// The compact binary encoding and the file and per-rank directory formats
// live in internal/store.
//
// An application signature (paper §III-A) is the set of trace files from all
// MPI ranks of a run at one core count. Each trace file carries, for every
// basic block the task executed: the block's source location, floating-point
// operation counts and composition, memory operation counts (loads/stores),
// reference sizes, the simulated cache hit rates for the target system, the
// block's working-set size, and its instruction-level parallelism. These are
// the "feature vector" elements that the extrapolation methodology models
// one at a time.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// FeatureVector holds the measured features of one basic block on one MPI
// task (paper §III-B). Count-valued fields are float64 because extrapolated
// vectors hold fractional model outputs.
type FeatureVector struct {
	// FPOps is the total number of floating-point operations executed.
	FPOps float64 `json:"fp_ops"`
	// FPAdd, FPMul and FPDivSqrt break FPOps into add/sub, multiply and
	// divide/sqrt classes ("composition of floating point work").
	FPAdd     float64 `json:"fp_add"`
	FPMul     float64 `json:"fp_mul"`
	FPDivSqrt float64 `json:"fp_divsqrt"`
	// MemOps is the total number of memory references.
	MemOps float64 `json:"mem_ops"`
	// Loads and Stores split MemOps by direction.
	Loads  float64 `json:"loads"`
	Stores float64 `json:"stores"`
	// BytesPerRef is the average payload size of one reference in bytes.
	BytesPerRef float64 `json:"bytes_per_ref"`
	// HitRates are the simulated cumulative cache hit rates of the block's
	// references on the target system, one entry per cache level, in [0,1].
	HitRates []float64 `json:"hit_rates"`
	// WorkingSetBytes is the block's data footprint.
	WorkingSetBytes float64 `json:"working_set_bytes"`
	// ILP is the block's instruction-level parallelism (independent
	// operations available per cycle).
	ILP float64 `json:"ilp"`
	// PrefetchPerRef is the hardware-prefetcher traffic observed while
	// simulating the block: lines installed by the prefetcher per demand
	// reference. Zero on machines without a prefetcher.
	PrefetchPerRef float64 `json:"prefetch_per_ref"`
}

// NumScalarElements is the number of feature-vector elements that precede
// the per-level hit rates in the flattened element ordering.
const NumScalarElements = 11

// ElementNames returns the names of the flattened feature-vector elements
// for a target system with the given number of cache levels. The ordering
// matches Values and SetValues.
func ElementNames(levels int) []string {
	names := []string{
		"fp_ops", "fp_add", "fp_mul", "fp_divsqrt",
		"mem_ops", "loads", "stores", "bytes_per_ref",
		"working_set_bytes", "ilp", "prefetch_per_ref",
	}
	for i := 0; i < levels; i++ {
		names = append(names, fmt.Sprintf("hit_rate_L%d", i+1))
	}
	return names
}

// Values flattens the feature vector into the canonical element ordering.
// The vector's HitRates must have exactly `levels` entries.
func (fv *FeatureVector) Values(levels int) ([]float64, error) {
	if len(fv.HitRates) != levels {
		return nil, fmt.Errorf("trace: vector has %d hit rates, want %d", len(fv.HitRates), levels)
	}
	vals := make([]float64, 0, NumScalarElements+levels)
	vals = append(vals,
		fv.FPOps, fv.FPAdd, fv.FPMul, fv.FPDivSqrt,
		fv.MemOps, fv.Loads, fv.Stores, fv.BytesPerRef,
		fv.WorkingSetBytes, fv.ILP, fv.PrefetchPerRef)
	vals = append(vals, fv.HitRates...)
	return vals, nil
}

// FromValues reconstructs a feature vector from the canonical flattened
// element ordering.
func FromValues(vals []float64, levels int) (FeatureVector, error) {
	if len(vals) != NumScalarElements+levels {
		return FeatureVector{}, fmt.Errorf("trace: %d values for %d levels, want %d",
			len(vals), levels, NumScalarElements+levels)
	}
	fv := FeatureVector{
		FPOps: vals[0], FPAdd: vals[1], FPMul: vals[2], FPDivSqrt: vals[3],
		MemOps: vals[4], Loads: vals[5], Stores: vals[6], BytesPerRef: vals[7],
		WorkingSetBytes: vals[8], ILP: vals[9], PrefetchPerRef: vals[10],
		HitRates: append([]float64(nil), vals[NumScalarElements:]...),
	}
	return fv, nil
}

// Constraint bounds one flattened element's legal range; extrapolated
// values are clamped into it.
type Constraint struct {
	Min, Max float64
}

// ElementConstraints returns the physical bounds of each flattened element:
// counts, sizes and ILP are non-negative and unbounded above; hit rates lie
// in [0,1].
func ElementConstraints(levels int) []Constraint {
	cons := make([]Constraint, 0, NumScalarElements+levels)
	for i := 0; i < NumScalarElements; i++ {
		cons = append(cons, Constraint{Min: 0, Max: math.Inf(1)})
	}
	for i := 0; i < levels; i++ {
		cons = append(cons, Constraint{Min: 0, Max: 1})
	}
	return cons
}

// Validate checks the vector's physical plausibility for a target system
// with the given number of cache levels.
func (fv *FeatureVector) Validate(levels int) error {
	vals, err := fv.Values(levels)
	if err != nil {
		return err
	}
	names := ElementNames(levels)
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("trace: element %s is non-finite", names[i])
		}
		if v < 0 {
			return fmt.Errorf("trace: element %s is negative (%g)", names[i], v)
		}
	}
	for i, h := range fv.HitRates {
		if h > 1 {
			return fmt.Errorf("trace: hit rate L%d = %g exceeds 1", i+1, h)
		}
		if i > 0 && h < fv.HitRates[i-1]-1e-9 {
			return fmt.Errorf("trace: cumulative hit rates not monotone at L%d", i+1)
		}
	}
	if fv.Loads+fv.Stores > fv.MemOps*(1+1e-9)+1e-9 {
		return fmt.Errorf("trace: loads+stores (%g) exceed mem ops (%g)", fv.Loads+fv.Stores, fv.MemOps)
	}
	if fv.FPAdd+fv.FPMul+fv.FPDivSqrt > fv.FPOps*(1+1e-9)+1e-9 {
		return fmt.Errorf("trace: FP composition (%g) exceeds FP ops (%g)",
			fv.FPAdd+fv.FPMul+fv.FPDivSqrt, fv.FPOps)
	}
	return nil
}

// Block is one basic block's entry in a trace file: its identity, source
// location, and measured feature vector.
type Block struct {
	// ID is the basic-block identifier, stable across core counts (in the
	// real toolchain it is derived from the executable; here from the
	// synthetic application's kernel table).
	ID uint64 `json:"id"`
	// Func, File and Line locate the block in the source code.
	Func string `json:"func"`
	File string `json:"file"`
	Line int    `json:"line"`
	// FV is the block's measured feature vector.
	FV FeatureVector `json:"fv"`
}

// Trace is the summary trace file of one MPI task at one core count.
type Trace struct {
	// App is the application name.
	App string `json:"app"`
	// CoreCount is the total number of MPI tasks in the run.
	CoreCount int `json:"core_count"`
	// Rank is this task's MPI rank.
	Rank int `json:"rank"`
	// Machine names the target system whose cache structure was simulated.
	Machine string `json:"machine"`
	// Levels is the number of cache levels in the simulated target.
	Levels int `json:"levels"`
	// Blocks lists the basic blocks the task executed, sorted by ID.
	Blocks []Block `json:"blocks"`
}

// Validate checks trace consistency.
func (t *Trace) Validate() error {
	if t.App == "" {
		return fmt.Errorf("trace: empty application name")
	}
	if t.CoreCount <= 0 {
		return fmt.Errorf("trace: non-positive core count %d", t.CoreCount)
	}
	if t.Rank < 0 || t.Rank >= t.CoreCount {
		return fmt.Errorf("trace: %w: rank %d of %d cores", ErrRankOutOfRange, t.Rank, t.CoreCount)
	}
	if t.Levels <= 0 {
		return fmt.Errorf("trace: non-positive level count %d", t.Levels)
	}
	seen := make(map[uint64]bool, len(t.Blocks))
	for i := range t.Blocks {
		b := &t.Blocks[i]
		if seen[b.ID] {
			return fmt.Errorf("trace: duplicate block id %d", b.ID)
		}
		seen[b.ID] = true
		if err := b.FV.Validate(t.Levels); err != nil {
			return fmt.Errorf("trace: block %d (%s): %w", b.ID, b.Func, err)
		}
	}
	return nil
}

// SortBlocks orders the trace's blocks by ID, the canonical on-disk order.
func (t *Trace) SortBlocks() {
	sort.Slice(t.Blocks, func(i, j int) bool { return t.Blocks[i].ID < t.Blocks[j].ID })
}

// BlockByID returns a lookup map over the trace's blocks. The pointers
// alias the trace's storage.
func (t *Trace) BlockByID() map[uint64]*Block {
	m := make(map[uint64]*Block, len(t.Blocks))
	for i := range t.Blocks {
		m[t.Blocks[i].ID] = &t.Blocks[i]
	}
	return m
}

// TotalMemOps sums memory operations over all blocks.
func (t *Trace) TotalMemOps() float64 {
	var s float64
	for i := range t.Blocks {
		s += t.Blocks[i].FV.MemOps
	}
	return s
}

// TotalFPOps sums floating-point operations over all blocks.
func (t *Trace) TotalFPOps() float64 {
	var s float64
	for i := range t.Blocks {
		s += t.Blocks[i].FV.FPOps
	}
	return s
}

// Influence returns a block's influence ratio: its share of the task's
// memory operations, or of floating-point operations for blocks with no
// memory traffic (paper §IV). Blocks above the InfluenceThreshold are the
// ones whose extrapolation accuracy matters.
func (t *Trace) Influence(b *Block) float64 {
	if b.FV.MemOps > 0 {
		total := t.TotalMemOps()
		if total == 0 {
			return 0
		}
		return b.FV.MemOps / total
	}
	total := t.TotalFPOps()
	if total == 0 {
		return 0
	}
	return b.FV.FPOps / total
}

// InfluenceThreshold is the paper's cutoff: blocks contributing more than
// 0.1 % of the task's memory (or floating-point) operations are influential.
const InfluenceThreshold = 0.001

// Signature is an application signature: the collection of trace files from
// the MPI ranks of one run against one target machine.
type Signature struct {
	App       string  `json:"app"`
	CoreCount int     `json:"core_count"`
	Machine   string  `json:"machine"`
	Traces    []Trace `json:"traces"`
	// Uncertainty carries per-element variances when the signature was
	// synthesized by an uncertainty-aware extrapolation
	// (extrap.Options.Intervals) or collected under an adaptive sampling
	// policy (its measurement variances); nil otherwise. Every encoding
	// carries it: JSON omits it when nil, so other signatures encode
	// exactly as before, and the store codec writes it as its own record
	// (codec version 3).
	Uncertainty *SignatureUncertainty `json:"uncertainty,omitempty"`
}

// BlockUncertainty holds one block's per-element predictive variances at
// the signature's core count, indexed like ElementNames.
type BlockUncertainty struct {
	ID   uint64    `json:"id"`
	Vars []float64 `json:"vars"`
}

// SignatureUncertainty summarizes the posterior predictive uncertainty of
// an extrapolated signature: per-block element variances plus the
// Student-t degrees of freedom the variances were estimated with (small
// input series ⇒ small dof ⇒ heavy tails).
type SignatureUncertainty struct {
	// Dof is the residual degrees of freedom for interval quantiles
	// (≥ 1).
	Dof int `json:"dof"`
	// Blocks holds per-block element variances, ascending by block ID.
	Blocks []BlockUncertainty `json:"blocks"`
}

// validate checks the uncertainty of a signature whose traces have the
// given number of cache levels: Dof of at least 1, blocks strictly
// ascending by ID, and one finite, non-negative variance per element.
func (u *SignatureUncertainty) validate(levels int) error {
	if u.Dof < 1 {
		return fmt.Errorf("trace: uncertainty dof %d below 1", u.Dof)
	}
	want := NumScalarElements + levels
	for i := range u.Blocks {
		b := &u.Blocks[i]
		if i > 0 && b.ID <= u.Blocks[i-1].ID {
			return fmt.Errorf("trace: uncertainty block %d not ascending after %d", b.ID, u.Blocks[i-1].ID)
		}
		if len(b.Vars) != want {
			return fmt.Errorf("trace: uncertainty block %d has %d variances, want %d", b.ID, len(b.Vars), want)
		}
		for e, v := range b.Vars {
			if !(v >= 0) || math.IsInf(v, 1) {
				return fmt.Errorf("trace: uncertainty block %d element %d variance %g", b.ID, e, v)
			}
		}
	}
	return nil
}

// VarsFor returns the element variances of one block, or nil when the
// block is unknown.
func (u *SignatureUncertainty) VarsFor(id uint64) []float64 {
	if u == nil {
		return nil
	}
	for i := range u.Blocks {
		if u.Blocks[i].ID == id {
			return u.Blocks[i].Vars
		}
	}
	return nil
}

// Validate checks the signature, every contained trace and the
// uncertainty, if any. Uncertainty needs every trace to have the same
// number of cache levels, since one variance vector serves a block in
// every rank.
func (s *Signature) Validate() error {
	if len(s.Traces) == 0 {
		return fmt.Errorf("trace: %w", ErrNoTraces)
	}
	for i := range s.Traces {
		tr := &s.Traces[i]
		if err := tr.Validate(); err != nil {
			return fmt.Errorf("trace: signature trace %d: %w", i, err)
		}
		if tr.App != s.App || tr.CoreCount != s.CoreCount || tr.Machine != s.Machine {
			return fmt.Errorf("trace: trace %d metadata (%s,%d,%s) disagrees with signature (%s,%d,%s)",
				i, tr.App, tr.CoreCount, tr.Machine, s.App, s.CoreCount, s.Machine)
		}
		if s.Uncertainty != nil && tr.Levels != s.Traces[0].Levels {
			return fmt.Errorf("trace: trace %d has %d cache levels, trace 0 has %d", i, tr.Levels, s.Traces[0].Levels)
		}
	}
	if s.Uncertainty != nil {
		return s.Uncertainty.validate(s.Traces[0].Levels)
	}
	return nil
}

// DominantTrace returns the trace of the most computationally demanding
// task: the one with the greatest memory-plus-FP operation weight. This is
// the task the paper extrapolates (identified there by a lightweight MPI
// profiling library). It returns nil for an empty signature.
func (s *Signature) DominantTrace() *Trace {
	var best *Trace
	var bestW float64
	for i := range s.Traces {
		tr := &s.Traces[i]
		w := tr.TotalMemOps() + tr.TotalFPOps()
		if best == nil || w > bestW {
			best, bestW = tr, w
		}
	}
	return best
}

// WriteJSON serializes the signature as indented JSON.
func (s *Signature) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadJSON deserializes and validates a signature.
func ReadJSON(r io.Reader) (*Signature, error) {
	var s Signature
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("trace: decoding signature: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
