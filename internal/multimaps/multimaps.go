// Package multimaps implements the MultiMAPS memory benchmark from the PMaC
// framework. MultiMAPS probes a system with memory access patterns across a
// range of working-set sizes and strides, recording the sustained bandwidth
// of each probe together with the cache hit rates the probe achieved. The
// resulting (hit rates → bandwidth) surface — Figure 1 of the paper — is the
// memory component of the machine profile.
//
// In this reproduction the "system" is the simulated memory hierarchy of a
// machine.Config: the probe streams run through the cache simulator and the
// memsim timing model instead of real silicon, producing a surface with the
// same qualitative structure (bandwidth plateaus at each cache level with
// cliffs between them).
package multimaps

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"tracex/internal/addrgen"
	"tracex/internal/cache"
	"tracex/internal/machine"
	"tracex/internal/memsim"
	"tracex/internal/obs"
)

// Options controls the probe sweep.
type Options struct {
	// WorkingSets lists the probe working-set sizes in bytes.
	WorkingSets []uint64
	// Strides lists probe strides in bytes. The special value 0 requests a
	// random-access probe at each working-set size.
	Strides []uint64
	// RefsPerProbe is the number of measured references per probe point.
	RefsPerProbe int
	// WarmupPasses is the number of full working-set passes executed
	// before measurement begins (cold-miss elimination).
	WarmupPasses int
	// Parallelism bounds the number of concurrent probe workers; ≤0 means
	// one worker per available CPU.
	Parallelism int
	// MixedFractions requests mixed-locality probes: for each fraction f,
	// a probe whose references go to an L1-resident region with
	// probability f and stream from a memory-sized region otherwise. They
	// fill in the bandwidth surface between the cache-resident plateau and
	// the streaming floor, which real applications occupy.
	MixedFractions []float64
}

// DefaultOptions builds a sweep that straddles every cache level of cfg:
// working sets from a quarter of L1 to four times the last-level cache, and
// strides covering unit, line-sized and random access.
func DefaultOptions(cfg machine.Config) Options {
	var ws []uint64
	first := uint64(cfg.Caches[0].SizeBytes) / 4
	last := uint64(cfg.Caches[len(cfg.Caches)-1].SizeBytes) * 4
	for s := first; s <= last; s *= 2 {
		ws = append(ws, s)
	}
	line := uint64(cfg.Caches[0].LineSize)
	return Options{
		WorkingSets:  ws,
		Strides:      []uint64{8, line / 2, line, 2 * line, 0},
		RefsPerProbe: 200_000,
		WarmupPasses: 2,
		MixedFractions: []float64{
			0.5, 0.75, 0.875, 0.9375, 0.96, 0.97, 0.98, 0.985,
			0.99, 0.995, 0.997, 0.999,
		},
	}
}

func (o Options) validate() error {
	if len(o.WorkingSets) == 0 {
		return fmt.Errorf("multimaps: no working sets")
	}
	if len(o.Strides) == 0 {
		return fmt.Errorf("multimaps: no strides")
	}
	if o.RefsPerProbe <= 0 {
		return fmt.Errorf("multimaps: non-positive refs per probe")
	}
	if o.WarmupPasses < 0 {
		return fmt.Errorf("multimaps: negative warmup passes")
	}
	for _, w := range o.WorkingSets {
		if w < 8 {
			return fmt.Errorf("multimaps: working set %d too small", w)
		}
	}
	return nil
}

// elem is the probe element size: 8-byte (double precision) values.
const elem = 8

// probeBatch is the address-slab length of the probe loops: addresses are
// generated and simulated in batches through a per-worker reusable buffer,
// mirroring the collection pipeline in internal/pebil. The context is
// consulted once per slab.
const probeBatch = 4096

// streamProbe drives n references from gen through sim in slabs of
// len(buf), checking for cancellation once per slab.
func streamProbe(ctx context.Context, sim *cache.Simulator, gen addrgen.Generator, buf []uint64, n int) error {
	for n > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		k := len(buf)
		if k > n {
			k = n
		}
		addrgen.FillBatch(gen, buf[:k])
		sim.AccessBatch(buf[:k])
		n -= k
	}
	return nil
}

// probe runs a single (working set, stride) measurement on the caller's
// cache simulator, flushed first so it behaves as a new one, and returns
// the surface point, streaming addresses through the caller's reusable
// buffer. A zero stride requests the random-access probe; a negative
// resident fraction is ignored, a positive one requests a mixed-locality
// probe (stride is then unused).
func probe(ctx context.Context, cfg machine.Config, model *memsim.Model, sim *cache.Simulator, ws, stride uint64, frac float64, opt Options, buf []uint64) (machine.SurfacePoint, error) {
	probeStart := time.Now()
	sim.Flush()
	var gen addrgen.Generator
	var err error
	switch {
	case frac > 0:
		// Mixed probe: a quarter-of-L1 resident region against a
		// streaming region four times the last-level cache.
		hotWS := uint64(cfg.Caches[0].SizeBytes) / 4
		coldWS := uint64(cfg.Caches[len(cfg.Caches)-1].SizeBytes) * 4
		var hot, cold addrgen.Generator
		hot, err = addrgen.NewStride(0, elem, hotWS)
		if err == nil {
			cold, err = addrgen.NewStride(1<<40, uint64(cfg.Caches[0].LineSize), coldWS)
		}
		if err == nil {
			gen, err = addrgen.NewBiased(hot, cold, frac)
		}
		ws = hotWS + coldWS
	case stride == 0:
		gen, err = addrgen.NewRandom(0, ws, elem, int64(ws)^0x5eed)
	default:
		gen, err = addrgen.NewStride(0, stride, ws)
	}
	if err != nil {
		return machine.SurfacePoint{}, fmt.Errorf("multimaps: ws=%d stride=%d frac=%g: %w", ws, stride, frac, err)
	}
	// Warmup: walk the whole working set WarmupPasses times so steady-state
	// residency is established before measuring.
	effStride := stride
	if effStride == 0 || frac > 0 {
		effStride = elem
	}
	warmRefs := int(ws/effStride) * opt.WarmupPasses
	if max := 4 * opt.RefsPerProbe; warmRefs > max {
		warmRefs = max // beyond-LLC regions are miss-bound immediately
	}
	if err := streamProbe(ctx, sim, gen, buf, warmRefs); err != nil {
		return machine.SurfacePoint{}, err
	}
	sim.ResetCounters()
	if err := streamProbe(ctx, sim, gen, buf, opt.RefsPerProbe); err != nil {
		return machine.SurfacePoint{}, err
	}
	ctr := sim.Counters()
	bw, err := model.BandwidthGBs(ctr, elem)
	if err != nil {
		return machine.SurfacePoint{}, err
	}
	pfPerRef := 0.0
	if ctr.Refs > 0 {
		pfPerRef = float64(ctr.PrefetchFills) / float64(ctr.Refs)
	}
	// One batched update per probe point: which sweep family it belongs
	// to, how many addresses it streamed, and how long it took.
	m := obs.From(ctx)
	switch {
	case frac > 0:
		m.Counter("multimaps.points.mixed").Inc()
	case stride == 0:
		m.Counter("multimaps.points.random").Inc()
	default:
		m.Counter("multimaps.points.strided").Inc()
	}
	m.Counter("multimaps.refs").Add(uint64(warmRefs + opt.RefsPerProbe))
	m.Histogram("multimaps.probe_seconds").Observe(time.Since(probeStart).Seconds())
	return machine.SurfacePoint{
		WorkingSetBytes:  ws,
		StrideBytes:      stride,
		HitRates:         ctr.CumulativeHitRates(),
		BandwidthGBs:     bw,
		ResidentFraction: frac,
		PrefetchPerRef:   pfPerRef,
	}, nil
}

// Run executes the MultiMAPS sweep against cfg's simulated memory system and
// returns the machine profile containing the measured bandwidth surface.
// Probe points are independent, so they run concurrently. Cancelling ctx
// stops the sweep promptly and returns ctx.Err().
func Run(ctx context.Context, cfg machine.Config, opt Options) (*machine.Profile, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}
	sp := obs.From(ctx).StartSpan("multimaps.sweep", cfg.Name)
	defer sp.End()
	model, err := memsim.New(cfg)
	if err != nil {
		return nil, err
	}
	type job struct {
		ws, stride uint64
		frac       float64
	}
	var jobs []job
	for _, ws := range opt.WorkingSets {
		for _, st := range opt.Strides {
			if st != 0 && st > ws {
				continue // stride beyond the working set is degenerate
			}
			jobs = append(jobs, job{ws, st, 0})
		}
	}
	for _, f := range opt.MixedFractions {
		if f <= 0 || f >= 1 {
			return nil, fmt.Errorf("multimaps: mixed fraction %g outside (0,1)", f)
		}
		jobs = append(jobs, job{0, 0, f})
	}
	workers := opt.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	// One simulator per worker, flushed between its probes.
	sims := make([]*cache.Simulator, workers)
	for w := range sims {
		if sims[w], err = cache.NewSimulatorOpts(cfg.Caches, cache.Options{NextLinePrefetch: cfg.Prefetch}); err != nil {
			return nil, err
		}
	}
	points := make([]machine.SurfacePoint, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	next := make(chan int)
	for _, sim := range sims {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]uint64, probeBatch) // per-worker slab, reused across probes
			for i := range next {
				if errs[i] = ctx.Err(); errs[i] != nil {
					continue // cancelled: drain the remaining jobs cheaply
				}
				points[i], errs[i] = probe(ctx, cfg, model, sim, jobs[i].ws, jobs[i].stride, jobs[i].frac, opt, buf)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	// Prefer a real probe failure over the cancellations it may have left
	// in sibling probes, falling back to the context error.
	var ctxErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			ctxErr = err
			continue
		}
		return nil, err
	}
	if ctxErr != nil {
		return nil, ctxErr
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].ResidentFraction != points[j].ResidentFraction {
			return points[i].ResidentFraction < points[j].ResidentFraction
		}
		if points[i].WorkingSetBytes != points[j].WorkingSetBytes {
			return points[i].WorkingSetBytes < points[j].WorkingSetBytes
		}
		return points[i].StrideBytes < points[j].StrideBytes
	})
	p := &machine.Profile{Machine: cfg, Surface: points}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("multimaps: produced invalid profile: %w", err)
	}
	return p, nil
}
