package main

import (
	"math/rand/v2"
)

// Op kinds.
const (
	kindStudy   = "study"
	kindPredict = "predict"
	kindGet     = "get"
	kindPut     = "put"
)

// Phases of a run. An untraced run has one timed window (phaseMain); a
// traced run follows it with a traced window (phaseTraced). Each phase has
// its own op sequence, so the traced window issues the same ops on every
// run with a given seed, however far the first window got.
const (
	phaseMain   = 0
	phaseTraced = 1
)

// op is one operation of a workload's sequence.
type op struct {
	// index orders ops within a phase: caller c's j-th op has index
	// j*callers + c.
	index  int
	caller int
	kind   string
	// ident indexes the workload's identity table (HTTP workloads).
	ident int
	// b and sampleRefs shape a pipeline-cold study: inputs {b, 2b, 4b},
	// target 8b, fixed sampling of sampleRefs references per block.
	b, sampleRefs int
}

// opRand is the op's private random stream: a pure function of the seed,
// the phase and the op index, so any op can be regenerated on its own.
func opRand(seed int64, phase, index int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(phase)<<32|uint64(index)))
}

// Pipeline-cold inputs. Every study collects at {b, 2b, 4b} and 8b. Odd b
// keep the four core counts of different b disjoint, and the narrow band
// keeps the replay cost at 8b within a few percent across ops. A run
// completes more studies than the band has values of b, so the per-block
// sample budget also carries the op's index: no collection identity
// repeats in a run, and every collection misses every cache tier. The
// reduced budget (the library default is 400k sampled and up to 2M
// warm-up references per block) keeps a study near 0.15 s at about 1%
// extrapolation error.
const (
	studyMinB       = 25
	studyBChoices   = 8 // b in {25, 27, ..., 39}
	studySampleRefs = 50_000
	studyWarmRefs   = 500_000
)

func studyOp(seed int64, phase, j int) op {
	r := opRand(seed, phase, j)
	return op{
		index:      j,
		kind:       kindStudy,
		b:          studyMinB + 2*r.IntN(studyBChoices),
		sampleRefs: studySampleRefs + 2*j + phase,
	}
}

// identityOp picks caller c's j-th op over an identity table partitioned
// by caller (identity k belongs to caller k mod callers), so two callers
// never request the same identity at once and the server never coalesces
// them. mix maps a draw in [0, 10) to the op kind.
func identityOp(seed int64, phase, callers, idents, c, j int, mix func(int) string) op {
	index := j*callers + c
	r := opRand(seed, phase, index)
	per := idents / callers
	return op{
		index:  index,
		caller: c,
		kind:   mix(r.IntN(10)),
		ident:  c + callers*r.IntN(per),
	}
}

// predictOnly is predict-warm's mix.
func predictOnly(int) string { return kindPredict }

// serveMix is serve-tiers' 6:3:1 mix of predict, GET and PUT.
func serveMix(d int) string {
	switch {
	case d < 6:
		return kindPredict
	case d < 9:
		return kindGet
	default:
		return kindPut
	}
}
