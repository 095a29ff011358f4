package pebil

import (
	"fmt"

	"tracex/internal/cache"
)

// Default sampling constants. A zero fixed policy takes these at
// execution time, so the zero CollectorConfig is the paper's default
// collection.
const (
	// DefaultSampleRefs is the per-block sample length.
	DefaultSampleRefs = 400_000
	// DefaultMaxWarmRefs caps the per-block cache warm-up stream.
	DefaultMaxWarmRefs = 2_000_000
)

// slabLen is the address-slab length streamed between the generators and
// the cache simulator. 4096 addresses (32 KiB) amortizes interface dispatch
// while staying L1-resident; any length simulates the same references.
const slabLen = 4096

// CacheModel selects how per-block cache hit rates are produced: by the
// exact multi-level simulator (the fidelity oracle) or analytically from a
// machine-independent reuse-distance signature. The zero value selects
// ModelExact.
type CacheModel string

const (
	// ModelExact streams every block's sampled addresses through the
	// multi-level cache simulator of the target geometry.
	ModelExact CacheModel = "exact"
	// ModelAnalytical collects one geometry-free reuse-distance signature
	// and derives per-level hit rates for the target geometry from the
	// stack-distance CDF with an associativity correction
	// (cache.Analytical). Unsupported for prefetcher-enabled targets and
	// shared-hierarchy collection; those fail with
	// cache.ErrModelUnsupported.
	ModelAnalytical CacheModel = "analytical"
)

// ParseCacheModel maps a user-facing model name ("", "exact",
// "analytical") to its CacheModel.
func ParseCacheModel(s string) (CacheModel, error) {
	switch CacheModel(s) {
	case "", ModelExact:
		return ModelExact, nil
	case ModelAnalytical:
		return ModelAnalytical, nil
	default:
		return "", fmt.Errorf("pebil: unknown cache model %q (want %q or %q)", s, ModelExact, ModelAnalytical)
	}
}

// CollectorConfig says how a signature is collected: how the address
// stream is sampled and simulated. Every field shapes the result; how the
// simulations are scheduled is the Collector's business (its arena size)
// and never changes a bit of the output. Construct it directly and call
// Validate before use (the Collector does so on every collection). The
// zero value selects all defaults.
type CollectorConfig struct {
	// Sampling is the reference-budget policy (see SamplingPolicy). The
	// zero value selects the default fixed policy.
	Sampling SamplingPolicy
	// SharedHierarchy interleaves every block's address stream through one
	// cache simulator (the paper's Figure 2 processes the task's single
	// address stream on the fly), so blocks contend for cache capacity.
	// The default simulates each block against a private hierarchy, which
	// measures steady-state per-kernel rates. Shared collection is
	// sequential (one simulator).
	SharedHierarchy bool
	// Model selects the cache model hit rates come from (default
	// ModelExact). See CacheModel.
	Model CacheModel
}

// Validate checks the configuration. Zero values are valid (they select
// defaults).
func (c CollectorConfig) Validate() error {
	if err := c.Sampling.Validate(); err != nil {
		return err
	}
	if _, err := ParseCacheModel(string(c.Model)); err != nil {
		return err
	}
	if c.Model == ModelAnalytical && c.SharedHierarchy {
		return fmt.Errorf("pebil: shared-hierarchy collection %w (blocks contend for one cache; use the exact model)",
			cache.ErrModelUnsupported)
	}
	if c.Sampling.IsAdaptive() {
		if c.SharedHierarchy {
			return fmt.Errorf("pebil: adaptive sampling is incompatible with SharedHierarchy (interleaved blocks share one stream; use a fixed policy)")
		}
		if c.Model == ModelAnalytical {
			return fmt.Errorf("pebil: adaptive sampling %w (per-block error bounds need the exact simulator)",
				cache.ErrModelUnsupported)
		}
	}
	return nil
}

// Normalized returns the configuration with every default filled: an
// unset policy becomes the default fixed one, a fixed policy gains the
// default sample length and warm cap, an adaptive one its default bounds,
// and an unset model becomes ModelExact. It is the one place defaults are
// resolved. Two configurations with equal Normalized forms produce
// identical signatures, which makes the normalized value a safe
// memoization key component.
func (c CollectorConfig) Normalized() CollectorConfig {
	if c.Sampling.Mode == "" {
		c.Sampling.Mode = SamplingModeFixed
	}
	c.Sampling = c.Sampling.Normalized()
	if c.Model == "" {
		c.Model = ModelExact
	}
	return c
}
