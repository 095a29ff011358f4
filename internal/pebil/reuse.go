package pebil

import (
	"context"
	"fmt"
	"sort"
	"time"

	"tracex/internal/addrgen"
	"tracex/internal/cache"
	"tracex/internal/machine"
	"tracex/internal/obs"
	"tracex/internal/synthapp"
	"tracex/internal/trace"
)

// ReuseLineSize is the cache-line granularity reuse-distance signatures are
// collected at. Every predefined machine uses 64-byte lines; the analytical
// model rejects hierarchies whose line size differs from the signature's.
const ReuseLineSize = 64

// CollectReuse records the machine-independent reuse-distance signature of
// app's dominant rank at core count p: for each basic block, the LRU
// stack-distance histogram of its sampled address stream at ReuseLineSize
// granularity. Collection mirrors exact collection phase for phase — the
// same warm-up stream primes the recorder's tracked-line state, then the
// same sample length is recorded — so a derived signature is comparable to
// a simulated one reference for reference. Blocks shard across the arena
// exactly like Counters units. Cancelling ctx stops the recording promptly
// and returns ctx.Err().
func (c *Collector) CollectReuse(ctx context.Context, app *synthapp.App, p int, cfg CollectorConfig) (*trace.ReuseSignature, error) {
	cfg, err := resolve(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.SharedHierarchy {
		return nil, fmt.Errorf("pebil: shared-hierarchy collection %w (blocks contend for one cache; use the exact model)",
			cache.ErrModelUnsupported)
	}
	if cfg.Sampling.IsAdaptive() {
		return nil, fmt.Errorf("pebil: adaptive sampling %w (reuse recording has no per-block error bound; use a fixed policy)",
			cache.ErrModelUnsupported)
	}
	sp := obs.From(ctx).StartSpan("pebil.reuse", fmt.Sprintf("%s@%d", app.Name(), p))
	defer sp.End()
	works, err := app.Work(p)
	if err != nil {
		return nil, err
	}
	obs.From(ctx).Gauge("pebil.workers").Set(float64(c.arena.width(len(works))))
	blocks := make([]trace.ReuseBlock, len(works))
	err = c.arena.run(ctx, len(works), func(i int, s *scratch) error {
		rb, err := recordBlock(ctx, &works[i], cfg, s)
		if err != nil {
			return err
		}
		blocks[i] = rb
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].ID < blocks[j].ID })
	rs := &trace.ReuseSignature{
		App:       app.Name(),
		CoreCount: p,
		LineSize:  ReuseLineSize,
		Blocks:    blocks,
	}
	if err := rs.Validate(); err != nil {
		return nil, fmt.Errorf("pebil: produced invalid reuse signature: %w", err)
	}
	return rs, nil
}

// recordBlock measures one block's reuse-distance histogram on the worker's
// recorder, phase-matched to simulateBlock: warm min(ws/8, MaxWarmRefs)
// references unrecorded, then record min(SampleRefs, Refs).
func recordBlock(ctx context.Context, w *synthapp.Work, cfg CollectorConfig, s *scratch) (trace.ReuseBlock, error) {
	m := obs.From(ctx)
	warm, sample := cfg.Budget(w.Refs, w.WorkingSetBytes)
	rec, err := s.recorder(ReuseLineSize, warm+sample)
	if err != nil {
		return trace.ReuseBlock{}, err
	}
	buf := s.slab(slabLen)
	start := time.Now()
	hist := trace.ReuseHistogram{LineSize: ReuseLineSize}
	record := func(n int, into *trace.ReuseHistogram) error {
		for n > 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			k := len(buf)
			if k > n {
				k = n
			}
			addrgen.FillBatch(w.Gen, buf[:k])
			if into == nil {
				rec.Warm(buf[:k])
			} else {
				rec.Record(buf[:k], into)
			}
			n -= k
		}
		return nil
	}
	if err := record(warm, nil); err != nil {
		return trace.ReuseBlock{}, err
	}
	if err := record(sample, &hist); err != nil {
		return trace.ReuseBlock{}, err
	}
	m.Counter("pebil.reuse_warm_refs").Add(uint64(warm))
	m.Counter("pebil.reuse_sample_refs").Add(uint64(sample))
	m.Counter("pebil.reuse_blocks").Inc()
	m.Histogram("pebil.block_reuse_seconds").Observe(time.Since(start).Seconds())
	return trace.ReuseBlock{
		ID:              w.Spec.ID,
		Func:            w.Spec.Func,
		File:            w.Spec.File,
		Line:            w.Spec.Line,
		Refs:            w.Refs,
		WorkingSetBytes: w.WorkingSetBytes,
		FPPerRef:        w.Spec.FPPerRef,
		AddFrac:         w.Spec.AddFrac,
		MulFrac:         w.Spec.MulFrac,
		DivFrac:         w.Spec.DivFrac,
		LoadFrac:        w.Spec.LoadFrac,
		BytesPerRef:     w.Spec.BytesPerRef,
		ILP:             w.Spec.ILP,
		Hist:            hist,
	}, nil
}

// reuseFeatureVector assembles the trace feature vector of one reuse block
// for a rank with the given load factor, using model-derived hit rates.
// The analytical model has no prefetcher, so PrefetchPerRef is zero.
func reuseFeatureVector(b *trace.ReuseBlock, rates []float64, loadFactor float64) trace.FeatureVector {
	memOps := b.Refs * loadFactor
	fpOps := memOps * b.FPPerRef
	return trace.FeatureVector{
		FPOps:           fpOps,
		FPAdd:           fpOps * b.AddFrac,
		FPMul:           fpOps * b.MulFrac,
		FPDivSqrt:       fpOps * b.DivFrac,
		MemOps:          memOps,
		Loads:           memOps * b.LoadFrac,
		Stores:          memOps * (1 - b.LoadFrac),
		BytesPerRef:     b.BytesPerRef,
		HitRates:        append([]float64(nil), rates...),
		WorkingSetBytes: b.WorkingSetBytes,
		ILP:             b.ILP,
	}
}

// SignatureFromReuse assembles the application signature for the target
// geometry from a collected reuse-distance signature: the model converts
// each block's histogram into per-level hit rates, and per-rank traces are
// assembled exactly as in exact collection (every rank executes the same
// blocks scaled by its load factor). A nil ranks slice selects one
// representative rank per load class, always including the dominant rank 0;
// a nil model selects cache.Analytical. The app must be the one the
// signature was collected from (it supplies the load-class structure).
//
// Prefetcher-enabled targets fail with cache.ErrModelUnsupported: the
// analytical model cannot reproduce stream-prefetch traffic, and silently
// dropping it would bias predictions. Use the exact model there.
func SignatureFromReuse(rs *trace.ReuseSignature, app *synthapp.App, target machine.Config, ranks []int, model cache.Model) (*trace.Signature, error) {
	if rs == nil {
		return nil, fmt.Errorf("pebil: nil reuse signature")
	}
	if app == nil {
		return nil, fmt.Errorf("pebil: nil application")
	}
	if err := rs.Validate(); err != nil {
		return nil, err
	}
	if app.Name() != rs.App {
		return nil, fmt.Errorf("pebil: %w: reuse signature is for %q, application is %q",
			trace.ErrMachineMismatch, rs.App, app.Name())
	}
	if err := target.Validate(); err != nil {
		return nil, err
	}
	if target.Prefetch {
		return nil, fmt.Errorf("pebil: target %s has a hardware prefetcher, %w (use the exact model)",
			target.Name, cache.ErrModelUnsupported)
	}
	if model == nil {
		model = cache.Analytical{}
	}
	p := rs.CoreCount
	rates := make([][]float64, len(rs.Blocks))
	for i := range rs.Blocks {
		r, err := model.Rates(&rs.Blocks[i].Hist, target.Caches)
		if err != nil {
			return nil, fmt.Errorf("pebil: block %d (%s) on %s: %w",
				rs.Blocks[i].ID, rs.Blocks[i].Func, target.Name, err)
		}
		rates[i] = r
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
	for i, r := range ranks {
		tr := trace.Trace{
			App:       rs.App,
			CoreCount: p,
			Rank:      r,
			Machine:   target.Name,
			Levels:    len(target.Caches),
		}
		lf := app.LoadFactor(r)
		tr.Blocks = make([]trace.Block, 0, len(rs.Blocks))
		for j := range rs.Blocks {
			b := &rs.Blocks[j]
			tr.Blocks = append(tr.Blocks, trace.Block{
				ID:   b.ID,
				Func: b.Func,
				File: b.File,
				Line: b.Line,
				FV:   reuseFeatureVector(b, rates[j], lf),
			})
		}
		tr.SortBlocks()
		traces[i] = tr
	}
	sig := &trace.Signature{App: rs.App, CoreCount: p, Machine: target.Name, Traces: traces}
	if err := sig.Validate(); err != nil {
		return nil, fmt.Errorf("pebil: derived invalid signature: %w", err)
	}
	return sig, nil
}
