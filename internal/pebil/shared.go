package pebil

import (
	"context"
	"time"

	"tracex/internal/addrgen"
	"tracex/internal/cache"
	"tracex/internal/machine"
	"tracex/internal/obs"
	"tracex/internal/synthapp"
)

// sharedLookahead bounds the per-block refill buffers of the shared-
// hierarchy path. The interleave consumes one address at a time, so the
// buffers only amortize generator dispatch; a small slab keeps the total
// lookahead footprint below the slab of a single private-path worker.
const sharedLookahead = 256

// blockStream feeds one block's addresses through a refill buffer so the
// interleaved consumer pays the generator's batch cost once per
// sharedLookahead references instead of one interface dispatch each.
// Addresses are handed out in exactly generator order; buffering is
// invisible to the simulation.
type blockStream struct {
	gen     addrgen.Generator
	buf     []uint64
	pos     int
	flushes uint64
}

func (b *blockStream) next() uint64 {
	if b.pos == len(b.buf) {
		addrgen.FillBatch(b.gen, b.buf)
		b.pos = 0
		b.flushes++
	}
	a := b.buf[b.pos]
	b.pos++
	return a
}

// collectShared runs every block's sampled stream through ONE cache
// simulator, interleaving references in proportion to each block's share of
// the task's total references — the closest sampled analog of processing
// the task's single interleaved address stream on the fly (Figure 2 of the
// paper). Per-block accounting is attributed access by access, so the pass
// stays sequential; batching enters through per-block lookahead buffers.
func collectShared(ctx context.Context, works []synthapp.Work, target machine.Config, cfg CollectorConfig) ([]BlockCounters, error) {
	sim, err := cache.NewSimulatorOpts(target.Caches, cache.Options{NextLinePrefetch: target.Prefetch})
	if err != nil {
		return nil, err
	}
	levels := len(target.Caches)

	// Interleave with per-block Bresenham accumulators weighted by each
	// block's full reference count, so the sampled mix matches the task's
	// real instruction mix.
	var totalRefs float64
	for i := range works {
		totalRefs += works[i].Refs
	}
	if totalRefs <= 0 {
		return nil, ErrEmptyWorkload
	}
	weights := make([]float64, len(works))
	for i := range works {
		weights[i] = works[i].Refs / totalRefs
	}
	acc := make([]float64, len(works))
	nextBlock := func() int {
		best, bestAcc := 0, -1.0
		for i := range acc {
			acc[i] += weights[i]
			if acc[i] > bestAcc {
				best, bestAcc = i, acc[i]
			}
		}
		acc[best]--
		return best
	}

	streams := make([]blockStream, len(works))
	for i := range streams {
		streams[i] = blockStream{gen: works[i].Gen, buf: make([]uint64, sharedLookahead)}
		streams[i].pos = sharedLookahead // force a fill on first use
	}

	// Warm-up: one interleaved pass sized like the per-block warm cap.
	// Metric updates are batched per phase, as in simulateBlock.
	m := obs.From(ctx)
	warm := cfg.Sampling.MaxWarmRefs
	warmStart := time.Now()
	for i := 0; i < warm; i++ {
		if i&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		b := nextBlock()
		sim.Access(streams[b].next())
	}
	m.Counter("pebil.warm_refs").Add(uint64(warm))
	m.Histogram("pebil.block_warm_seconds").Observe(time.Since(warmStart).Seconds())
	sim.ResetCounters()

	// Measured sample: SampleRefs per block on average, attributed per
	// access.
	type perBlock struct {
		refs      uint64
		levelHits []uint64
		mem       uint64
		pf        uint64
	}
	stats := make([]perBlock, len(works))
	for i := range stats {
		stats[i].levelHits = make([]uint64, levels)
	}
	total := cfg.Sampling.SampleRefs * len(works)
	sampleStart := time.Now()
	lastPF := sim.PrefetchFillCount()
	for i := 0; i < total; i++ {
		if i&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		b := nextBlock()
		lvl := sim.Access(streams[b].next())
		st := &stats[b]
		st.refs++
		if lvl < levels {
			st.levelHits[lvl]++
		} else {
			st.mem++
		}
		if pf := sim.PrefetchFillCount(); pf != lastPF {
			st.pf += pf - lastPF
			lastPF = pf
		}
	}

	var flushes uint64
	for i := range streams {
		flushes += streams[i].flushes
	}
	m.Counter("pebil.batch_flushes").Add(flushes)
	m.Counter("pebil.sample_refs").Add(uint64(total))
	m.Histogram("pebil.block_sample_seconds").Observe(time.Since(sampleStart).Seconds())
	m.Counter("pebil.blocks").Add(uint64(len(works)))

	out := make([]BlockCounters, len(works))
	var fb scratch
	for i := range works {
		st := &stats[i]
		if st.refs == 0 {
			// A vanishingly small block may receive no interleaved slots;
			// give it a private steady-state measurement instead. Its
			// generator has been drained into the lookahead buffer, so
			// rewind it first.
			works[i].Gen.Reset()
			bc, err := simulateBlock(ctx, &works[i], target, cfg, &fb)
			if err != nil {
				return nil, err
			}
			out[i] = bc
			continue
		}
		out[i] = BlockCounters{
			Spec:            works[i].Spec,
			Refs:            works[i].Refs,
			WorkingSetBytes: works[i].WorkingSetBytes,
			Counters: cache.Counters{
				Refs:          st.refs,
				LevelHits:     st.levelHits,
				MemAccesses:   st.mem,
				PrefetchFills: st.pf,
			},
		}
	}
	return out, nil
}
