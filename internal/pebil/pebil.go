// Package pebil emulates the role of the PEBIL binary-instrumentation
// platform in the paper's pipeline (Figure 2): it "instruments" a synthetic
// application, streams each basic block's memory addresses through a cache
// simulator mimicking the target system, and produces the summary trace
// files (application signature) that the extrapolation methodology and the
// PSiNS convolution consume.
//
// Where real PEBIL observes an executable's address stream (terabytes per
// hour, processed on the fly), this package draws a bounded, pattern-
// faithful sample from each block's deterministic address generator and
// scales the counts: hit rates converge quickly for the pattern families
// the proxies use, and the full reference counts come from the workload
// laws rather than from the sample length.
//
// Collection is parallel and batch-oriented: a Collector shards the
// per-block simulations across a reusable worker Arena, and each worker
// streams addresses in 4096-address slabs from the generators into
// cache.Simulator.AccessBatch through a per-worker reusable buffer, so the
// steady state allocates nothing and pays one interface dispatch per slab
// rather than per reference.
package pebil

import (
	"context"
	"errors"
	"fmt"
	"time"

	"tracex/internal/addrgen"
	"tracex/internal/cache"
	"tracex/internal/machine"
	"tracex/internal/obs"
	"tracex/internal/synthapp"
	"tracex/internal/trace"
)

// ErrEmptyWorkload reports a workload with no references at all.
var ErrEmptyWorkload = errors.New("pebil: workload has no references")

// ctxCheckMask throttles cancellation polling in the sequential
// shared-hierarchy loop: the context is consulted every ctxCheckMask+1
// references. The batched path polls once per slab instead.
const ctxCheckMask = 1<<16 - 1

// BlockCounters couples one block's workload with its sampled cache
// accounting on the target system, for the application's dominant rank.
type BlockCounters struct {
	// Spec is the block's static description.
	Spec synthapp.BlockSpec
	// Refs is the dominant rank's full memory reference count.
	Refs float64
	// WorkingSetBytes is the block's data footprint.
	WorkingSetBytes float64
	// Counters is the sampled cache accounting (Counters.Refs is the
	// sample size, not the full count).
	Counters cache.Counters
}

// Collector runs signature collections on a reusable worker arena. It is
// safe for concurrent use: workers keep per-goroutine scratch (address
// slabs, reusable simulators) and concurrent collections share the pool.
// Close the Collector when done to release the workers.
type Collector struct {
	arena *Arena
}

// NewCollector builds a Collector on an arena of the given number of
// workers; workers ≤ 0 means one per CPU. A collection runs on up to all of
// them, and its result does not depend on how many there are: every block
// draws from its own generator seeded by the block identity, and results
// land in slots indexed by block, so any worker interleaving produces
// bit-identical output.
func NewCollector(workers int) *Collector {
	return &Collector{arena: NewArena(workers)}
}

// Close drains the arena: it waits for in-flight work units and releases
// the worker goroutines. Collections submitted after Close fail with
// ErrArenaClosed. Close is idempotent.
func (c *Collector) Close() { c.arena.Close() }

// resolve validates a per-call configuration and fills its defaults.
func resolve(cfg CollectorConfig) (CollectorConfig, error) {
	if err := cfg.Validate(); err != nil {
		return CollectorConfig{}, err
	}
	return cfg.Normalized(), nil
}

// Counters simulates the dominant rank's workload of app at core count p
// against the target machine's cache structure, returning per-block sampled
// counters. Counters always runs the exact simulator — it is the fidelity
// oracle the analytical model is validated against — regardless of
// cfg.Model. Each block is one work unit on the arena: a worker warms a
// (reused) simulator to steady state and then takes a counted sample,
// streaming addresses in batches. With an adaptive sampling policy the
// warm-up, pilot and refinement passes of adaptiveCollect replace the
// fixed budget (the measurement uncertainty is only surfaced through
// Collect). Results land in slots indexed by block, so any worker
// interleaving yields bit-identical output. Cancelling ctx stops the
// simulations promptly and returns ctx.Err().
func (c *Collector) Counters(ctx context.Context, app *synthapp.App, p int, target machine.Config, cfg CollectorConfig) ([]BlockCounters, error) {
	if err := target.Validate(); err != nil {
		return nil, err
	}
	cfg, err := resolve(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Sampling.IsAdaptive() {
		out, _, err := c.adaptiveCollect(ctx, app, p, target, cfg)
		return out, err
	}
	sp := obs.From(ctx).StartSpan("pebil.collect", fmt.Sprintf("%s@%d", app.Name(), p))
	defer sp.End()
	works, err := app.Work(p)
	if err != nil {
		return nil, err
	}
	if cfg.SharedHierarchy {
		obs.From(ctx).Gauge("pebil.workers").Set(1)
		return collectShared(ctx, works, target, cfg)
	}
	obs.From(ctx).Gauge("pebil.workers").Set(float64(c.arena.width(len(works))))
	out := make([]BlockCounters, len(works))
	err = c.arena.run(ctx, len(works), func(i int, s *scratch) error {
		bc, err := simulateBlock(ctx, &works[i], target, cfg, s)
		if err != nil {
			return err
		}
		out[i] = bc
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// streamRefs drives n references from gen through sim in slabs of len(buf),
// checking for cancellation once per slab. It returns the number of slab
// flushes so callers can batch the pebil.batch_flushes metric update.
func streamRefs(ctx context.Context, sim *cache.Simulator, gen addrgen.Generator, buf []uint64, n int) (uint64, error) {
	var flushes uint64
	for n > 0 {
		if err := ctx.Err(); err != nil {
			return flushes, err
		}
		k := len(buf)
		if k > n {
			k = n
		}
		addrgen.FillBatch(gen, buf[:k])
		sim.AccessBatch(buf[:k])
		n -= k
		flushes++
	}
	return flushes, nil
}

// simulateBlock runs one block's sampled stream through the worker's
// simulator. Metric updates are batched — one Add per phase, never one per
// streamed address — so instrumentation stays off the per-reference path.
func simulateBlock(ctx context.Context, w *synthapp.Work, target machine.Config, cfg CollectorConfig, s *scratch) (BlockCounters, error) {
	m := obs.From(ctx)
	sim, err := s.simulator(target)
	if err != nil {
		return BlockCounters{}, err
	}
	buf := s.slab(slabLen)
	// Warm-up: touch the working set once (capped). For working sets far
	// beyond the hierarchy the cap is harmless — steady state is
	// miss-dominated and reached as soon as the caches fill.
	warm, sample := cfg.Budget(w.Refs, w.WorkingSetBytes)
	warmStart := time.Now()
	flushes, err := streamRefs(ctx, sim, w.Gen, buf, warm)
	if err != nil {
		return BlockCounters{}, err
	}
	m.Counter("pebil.warm_refs").Add(uint64(warm))
	m.Histogram("pebil.block_warm_seconds").Observe(time.Since(warmStart).Seconds())
	sim.ResetCounters()
	sampleStart := time.Now()
	sampleFlushes, err := streamRefs(ctx, sim, w.Gen, buf, sample)
	flushes += sampleFlushes
	if err != nil {
		return BlockCounters{}, err
	}
	m.Counter("pebil.sample_refs").Add(uint64(sample))
	m.Counter("pebil.batch_flushes").Add(flushes)
	m.Histogram("pebil.block_sample_seconds").Observe(time.Since(sampleStart).Seconds())
	m.Counter("pebil.blocks").Inc()
	return BlockCounters{
		Spec:            w.Spec,
		Refs:            w.Refs,
		WorkingSetBytes: w.WorkingSetBytes,
		Counters:        sim.Counters(),
	}, nil
}

// featureVector converts sampled counters into the trace feature vector for
// a rank with the given load factor.
func featureVector(bc *BlockCounters, loadFactor float64) trace.FeatureVector {
	memOps := bc.Refs * loadFactor
	fpOps := memOps * bc.Spec.FPPerRef
	pfPerRef := 0.0
	if bc.Counters.Refs > 0 {
		pfPerRef = float64(bc.Counters.PrefetchFills) / float64(bc.Counters.Refs)
	}
	return trace.FeatureVector{
		FPOps:           fpOps,
		FPAdd:           fpOps * bc.Spec.AddFrac,
		FPMul:           fpOps * bc.Spec.MulFrac,
		FPDivSqrt:       fpOps * bc.Spec.DivFrac,
		MemOps:          memOps,
		Loads:           memOps * bc.Spec.LoadFrac,
		Stores:          memOps * (1 - bc.Spec.LoadFrac),
		BytesPerRef:     bc.Spec.BytesPerRef,
		HitRates:        bc.Counters.CumulativeHitRates(),
		WorkingSetBytes: bc.WorkingSetBytes,
		ILP:             bc.Spec.ILP,
		PrefetchPerRef:  pfPerRef,
	}
}

// Collect produces the application signature of app at core count p against
// the target machine: one trace file per requested rank. A nil ranks slice
// collects the paper's default — one representative rank per load class,
// always including the dominant rank 0. Per-rank trace assembly is sharded
// across the arena as well; each rank's trace is an affine scaling of the
// dominant rank's block counters, so the (rank, block) unit grid reduces to
// block simulation units plus cheap per-rank assembly units. Cancelling ctx
// stops the underlying simulations promptly and returns ctx.Err().
//
// With cfg.Model == ModelAnalytical the hit rates come from a collected
// reuse-distance signature through the analytical cache model instead of
// per-geometry simulation (see CollectReuse and SignatureFromReuse).
//
// With an adaptive sampling policy (SamplingModeAdaptive) the returned
// signature additionally carries trace.SignatureUncertainty: per-block
// measurement variances of the sampled elements (hit rates and prefetch
// fills per reference), which Predict's interval machinery consumes.
func (c *Collector) Collect(ctx context.Context, app *synthapp.App, p int, target machine.Config, ranks []int, cfg CollectorConfig) (*trace.Signature, error) {
	rcfg, err := resolve(cfg)
	if err != nil {
		return nil, err
	}
	if rcfg.Model == ModelAnalytical {
		rs, err := c.CollectReuse(ctx, app, p, cfg)
		if err != nil {
			return nil, err
		}
		return SignatureFromReuse(rs, app, target, ranks, cache.Analytical{})
	}
	var counters []BlockCounters
	var unc *trace.SignatureUncertainty
	if rcfg.Sampling.IsAdaptive() {
		if err := target.Validate(); err != nil {
			return nil, err
		}
		counters, unc, err = c.adaptiveCollect(ctx, app, p, target, rcfg)
	} else {
		counters, err = c.Counters(ctx, app, p, target, cfg)
	}
	if err != nil {
		return nil, err
	}
	if ranks == nil {
		for r := 0; r < app.NumClasses() && r < p; r++ {
			ranks = append(ranks, r) // ClassOf is round-robin: rank r is class r
		}
	}
	seen := map[int]bool{}
	for _, r := range ranks {
		if r < 0 || r >= p {
			return nil, fmt.Errorf("pebil: %w: rank %d of %d cores", trace.ErrRankOutOfRange, r, p)
		}
		if seen[r] {
			return nil, fmt.Errorf("pebil: duplicate rank %d requested", r)
		}
		seen[r] = true
	}
	traces := make([]trace.Trace, len(ranks))
	err = c.arena.run(ctx, len(ranks), func(i int, _ *scratch) error {
		r := ranks[i]
		tr := trace.Trace{
			App:       app.Name(),
			CoreCount: p,
			Rank:      r,
			Machine:   target.Name,
			Levels:    len(target.Caches),
		}
		lf := app.LoadFactor(r)
		tr.Blocks = make([]trace.Block, 0, len(counters))
		for j := range counters {
			bc := &counters[j]
			tr.Blocks = append(tr.Blocks, trace.Block{
				ID:   bc.Spec.ID,
				Func: bc.Spec.Func,
				File: bc.Spec.File,
				Line: bc.Spec.Line,
				FV:   featureVector(bc, lf),
			})
		}
		tr.SortBlocks()
		traces[i] = tr
		return nil
	})
	if err != nil {
		return nil, err
	}
	sig := &trace.Signature{App: app.Name(), CoreCount: p, Machine: target.Name, Traces: traces, Uncertainty: unc}
	if err := sig.Validate(); err != nil {
		return nil, fmt.Errorf("pebil: produced invalid signature: %w", err)
	}
	return sig, nil
}
