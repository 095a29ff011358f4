package pebil

import (
	"fmt"
	"runtime"

	"tracex/internal/cache"
)

// Default tuning constants for CollectorConfig. Zero-valued fields take
// these at execution time, so the zero CollectorConfig is the paper's
// default collection.
const (
	// DefaultSampleRefs is the per-block sample length.
	DefaultSampleRefs = 400_000
	// DefaultMaxWarmRefs caps the per-block cache warm-up stream.
	DefaultMaxWarmRefs = 2_000_000
	// DefaultBatchSize is the address-slab length streamed between the
	// generators and the cache simulator. 4096 addresses (32 KiB) amortizes
	// interface dispatch while staying L1-resident.
	DefaultBatchSize = 4096
	// maxBatchSize bounds per-worker scratch buffers.
	maxBatchSize = 1 << 22
)

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

// CollectorConfig tunes signature collection. It is validated like
// tracex.ExtrapOptions: construct it directly or through
// NewCollectorConfig with functional options, and call Validate before use
// (the Collector does so on every collection). The zero value selects all
// defaults.
//
// Sampling, SharedHierarchy and Model shape the result; Workers and
// BatchSize only schedule the same simulations differently. Determinism
// does not depend on either: every (rank, block) work unit draws from its
// own generator seeded by the block identity, and results are reduced into
// positions indexed by unit, so any worker interleaving produces
// bit-identical BlockCounters.
type CollectorConfig struct {
	// Sampling is the reference-budget policy (see SamplingPolicy). The
	// zero value selects the default fixed policy.
	Sampling SamplingPolicy
	// Workers bounds concurrent work units for one collection; ≤0 means one
	// worker per CPU. The collector's arena caps the effective value.
	Workers int
	// BatchSize is the number of addresses generated and simulated per
	// slab (default DefaultBatchSize). Any positive value yields the same
	// results; it only changes amortization and cancellation granularity.
	BatchSize int
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
// defaults); negative tuning values and oversized batches are not.
func (c CollectorConfig) Validate() error {
	if err := c.Sampling.Validate(); err != nil {
		return err
	}
	if c.Workers < 0 {
		return fmt.Errorf("pebil: negative Workers %d", c.Workers)
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("pebil: negative BatchSize %d", c.BatchSize)
	}
	if c.BatchSize > maxBatchSize {
		return fmt.Errorf("pebil: BatchSize %d exceeds maximum %d", c.BatchSize, maxBatchSize)
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

// withDefaults fills unset fields. The sampling policy resolves to its
// normalized form: an unset policy is the default fixed one, a fixed
// policy gains the default sample length and warm cap, an adaptive one its
// default bounds.
func (c CollectorConfig) withDefaults() CollectorConfig {
	if c.Sampling.Mode == "" {
		c.Sampling.Mode = SamplingModeFixed
	}
	c.Sampling = c.Sampling.Normalized()
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.BatchSize <= 0 {
		c.BatchSize = DefaultBatchSize
	}
	if c.Model == "" {
		c.Model = ModelExact
	}
	return c
}

// Normalized returns the configuration with defaults filled and
// execution-only knobs cleared: Workers and BatchSize schedule the same
// simulations differently without changing any result, so both are zeroed.
// Two configurations with equal Normalized forms produce identical
// signatures, which makes the normalized value a safe memoization key
// component.
func (c CollectorConfig) Normalized() CollectorConfig {
	c = c.withDefaults()
	c.Workers = 0
	c.BatchSize = 0
	return c
}

// EffectiveSampling returns the sampling policy the configuration
// resolves to: the normalized adaptive policy, or a fixed policy carrying
// the resolved sample length and warm cap. Use it for truthful reporting
// of what a collection ran with.
func (c CollectorConfig) EffectiveSampling() SamplingPolicy { return c.Normalized().Sampling }

// CollectorOption configures a CollectorConfig, mirroring the Engine's
// functional-option style.
type CollectorOption func(*CollectorConfig)

// WithWorkers bounds concurrent work units (and sizes the arena of a
// Collector built with this option).
func WithWorkers(n int) CollectorOption {
	return func(c *CollectorConfig) { c.Workers = n }
}

// WithBatchSize sets the address-slab length.
func WithBatchSize(n int) CollectorOption {
	return func(c *CollectorConfig) { c.BatchSize = n }
}

// WithSharedHierarchy selects interleaved collection through one shared
// cache simulator.
func WithSharedHierarchy(on bool) CollectorOption {
	return func(c *CollectorConfig) { c.SharedHierarchy = on }
}

// WithCacheModel selects the cache model hit rates come from.
func WithCacheModel(m CacheModel) CollectorOption {
	return func(c *CollectorConfig) { c.Model = m }
}

// WithSamplingPolicy sets the reference-budget policy (see SamplingPolicy,
// FixedSampling, AdaptiveSampling).
func WithSamplingPolicy(p SamplingPolicy) CollectorOption {
	return func(c *CollectorConfig) { c.Sampling = p }
}

// NewCollectorConfig applies the options to a zero CollectorConfig and
// validates the result.
func NewCollectorConfig(opts ...CollectorOption) (CollectorConfig, error) {
	var c CollectorConfig
	for _, o := range opts {
		o(&c)
	}
	if err := c.Validate(); err != nil {
		return CollectorConfig{}, err
	}
	return c, nil
}
