package addrgen

import "fmt"

// Biased interleaves a "hot" and a "cold" generator with a continuously
// tunable hot fraction, using deterministic Bresenham-style error
// accumulation (no randomness, so streams replay exactly). It models
// computations whose locality concentrates as an application strong-scales:
// a growing fraction of references land in a small resident region.
type Biased struct {
	hot, cold Generator
	hotFrac   float64
	acc       float64
}

// NewBiased returns a generator drawing hotFrac of references from hot and
// the rest from cold. hotFrac must lie in [0,1].
func NewBiased(hot, cold Generator, hotFrac float64) (*Biased, error) {
	if hotFrac < 0 || hotFrac > 1 {
		return nil, fmt.Errorf("addrgen: hot fraction %g outside [0,1]", hotFrac)
	}
	if hot == nil || cold == nil {
		return nil, fmt.Errorf("addrgen: nil sub-generator")
	}
	return &Biased{hot: hot, cold: cold, hotFrac: hotFrac}, nil
}

// Name implements Generator.
func (b *Biased) Name() string { return "biased(" + b.hot.Name() + "," + b.cold.Name() + ")" }

// WorkingSet implements Generator.
func (b *Biased) WorkingSet() uint64 { return b.hot.WorkingSet() + b.cold.WorkingSet() }

// Next implements Generator.
func (b *Biased) Next() uint64 {
	b.acc += b.hotFrac
	if b.acc >= 1 {
		b.acc--
		return b.hot.Next()
	}
	return b.cold.Next()
}

// NextBatch implements BatchGenerator. The Bresenham accumulator decides
// hot/cold per reference, so the sub-streams are drawn one address at a
// time, but the accumulator itself stays in a register for the batch.
func (b *Biased) NextBatch(dst []uint64) {
	acc, frac := b.acc, b.hotFrac
	for i := range dst {
		acc += frac
		if acc >= 1 {
			acc--
			dst[i] = b.hot.Next()
		} else {
			dst[i] = b.cold.Next()
		}
	}
	b.acc = acc
}

// Reset implements Generator.
func (b *Biased) Reset() {
	b.hot.Reset()
	b.cold.Reset()
	b.acc = 0
}
