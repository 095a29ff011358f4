package obs

import (
	"math"
	"sync/atomic"
)

// This file holds the serving-path additions to the metrics layer: a
// latency-oriented bucket layout fine enough for tail quantiles, quantile
// estimation over histogram buckets, and an atomic exponentially weighted
// moving average that tracks each fleet peer's error rate.

// DefLatencyBuckets is the histogram layout for client- and server-side
// request latencies in seconds: geometric ~1.25× steps from 50µs to 60s
// (62 buckets). The fine spacing keeps interpolated p999 estimates within
// ~12% of the true value, which DefTimeBuckets (decade steps) cannot do.
func DefLatencyBuckets() []float64 {
	buckets := make([]float64, 0, 64)
	for b := 50e-6; b < 60; b *= 1.25 {
		buckets = append(buckets, b)
	}
	return append(buckets, 60)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed
// distribution by linear interpolation within the containing bucket, the
// way Prometheus' histogram_quantile does. Observations in the overflow
// bucket clamp to the last bound. Returns NaN on a nil or empty histogram
// or an out-of-range q.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || q < 0 || q > 1 {
		return math.NaN()
	}
	total := h.count.Load()
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	cum := uint64(0)
	lower := 0.0
	for i, bound := range h.bounds {
		c := h.counts[i].Load()
		if c > 0 && float64(cum)+float64(c) >= rank {
			// Interpolate within [lower, bound] by the rank's position
			// inside this bucket's count.
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lower + (bound-lower)*frac
		}
		cum += c
		lower = bound
	}
	// Rank falls in the overflow bucket: all we know is "beyond the last
	// bound", so clamp to it.
	return lower
}

// EWMA is an atomic exponentially weighted moving average. It starts
// empty (Value returns NaN until the first Observe), and each Observe
// moves the average by alpha toward the new value. All methods are no-ops
// on a nil receiver, matching the package's other handles.
type EWMA struct {
	alpha float64
	bits  atomic.Uint64
}

// NewEWMA returns an empty average with the given smoothing factor
// (0 < alpha ≤ 1; larger tracks faster).
func NewEWMA(alpha float64) *EWMA {
	e := &EWMA{alpha: alpha}
	e.bits.Store(math.Float64bits(math.NaN()))
	return e
}

// Observe folds v into the average (the first observation seeds it).
func (e *EWMA) Observe(v float64) {
	if e == nil || math.IsNaN(v) {
		return
	}
	for {
		old := e.bits.Load()
		cur := math.Float64frombits(old)
		next := v
		if !math.IsNaN(cur) {
			next = cur + e.alpha*(v-cur)
		}
		if e.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// Value returns the current average, or NaN before any observation (and on
// a nil receiver).
func (e *EWMA) Value() float64 {
	if e == nil {
		return math.NaN()
	}
	return math.Float64frombits(e.bits.Load())
}
