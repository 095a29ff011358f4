package pebil

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"tracex/internal/addrgen"
	"tracex/internal/cache"
	"tracex/internal/cluster"
	"tracex/internal/machine"
	"tracex/internal/obs"
	"tracex/internal/synthapp"
	"tracex/internal/trace"
)

// Tuning constants of the adaptive collection loop. They shape results, so
// they are compile-time constants rather than policy fields: changing one
// is a semantic change that must bump collection identities.
const (
	// adaptiveWarmChunk is the first warm-up window length. Windows double
	// (each next window spans the whole stream so far) and the warm-up
	// stops when a window's hit rates move less than adaptiveWarmTol from
	// the previous window's — instead of always touching the full working
	// set up to the MaxWarmRefs cap, which dominates collection cost for
	// multi-megabyte working sets. Doubling is what makes the detector
	// safe against slow drift: a per-reference drift too small to trip a
	// fixed-size chunk accumulates across a window that doubles, so a
	// still-filling cache keeps warming while a genuinely steady one stops
	// after ~two windows.
	adaptiveWarmChunk = 1 << 16
	// adaptiveWarmTol is the stability criterion: every level's
	// window-local cumulative hit rate must move less than this (absolute)
	// between consecutive doubling windows. Stopping at a just-under-tol
	// delta leaves a residual bias well under tol (the window rate has
	// already absorbed most of the drift); the remainder is priced into
	// the reported variances via warmBias. Cold-start traps where rates
	// sit flat while the cache is still filling are handled by the fill
	// floor, not by this tolerance.
	adaptiveWarmTol = 0.01
	// adaptiveWarmTransition is the window-delta spike that marks a
	// capacity transition: the stream outgrew some level and its eviction
	// churn reached the hit rates. After one, stability across a doubling
	// is trusted even below the fill floor (see warmAndPilot).
	adaptiveWarmTransition = 0.015
	// pilotSegments is the number of equal batch-means segments the pilot
	// splits into; segment means estimate the per-block sampling variance
	// with pilotSegments-1 degrees of freedom.
	pilotSegments = 16
	// maxRefineRounds bounds the Neyman refinement loop; a block still
	// unconverged after the last round keeps its (truthfully wide)
	// variance estimate.
	maxRefineRounds = 8
	// missRateFloor floors the miss rate the relative-error target is
	// taken against, so near-perfect hit rates don't demand unbounded
	// samples.
	missRateFloor = 0.02
	// minClusterBlocks disables clustering for tiny block sets where a
	// representative cannot save anything.
	minClusterBlocks = 4
	// clusterRateTol is the maximum absolute pilot hit-rate difference (any
	// level, and prefetch fills per reference) between a cluster member
	// and its representative for the member to skip refinement.
	clusterRateTol = 0.01
	// clusterVarInflation scales a representative's variance when copied
	// to a skipped member, on top of the squared pilot-rate gap, so copied
	// rates honestly report more uncertainty than measured ones.
	clusterVarInflation = 2.0
	// clusterSeed seeds the deterministic k-means.
	clusterSeed = 1
	// clusterMaxIter bounds the Lloyd iterations.
	clusterMaxIter = 50
)

// reuseFeatureEdges are the stack-distance thresholds (in cache lines) the
// pilot reuse histogram is summarized at for clustering: the CDF at these
// points spans L1-sized through LLC-sized footprints.
var reuseFeatureEdges = []float64{16, 64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}

// adaptiveBlock is one block's collection state. It is owned by the
// collection (indexed by block), not by worker scratch, so results are
// independent of worker interleaving: every phase streams a
// deterministically-sized extension of the block's own address stream
// through the block's own simulator.
type adaptiveBlock struct {
	sim *cache.Simulator
	// warm is the number of warm-up references streamed.
	warm int
	// full is the block's full reference count (≥ 1), maxRefs the sample
	// cap min(policy MaxRefs, full).
	full    int
	maxRefs int
	// segL is the batch-means segment length; segRates[s] holds segment
	// s's per-level cumulative hit rates, segPF its prefetch fills per
	// reference.
	segL     int
	segRates [][]float64
	segPF    []float64
	// lastCum/lastPF snapshot the simulator accounting at the last segment
	// (or warm chunk) boundary.
	lastCum []uint64
	lastPF  uint64
	// exact marks blocks whose full stream fits in the pilot budget; they
	// are simulated exactly and carry zero variance.
	exact bool
	// warmBias bounds the residual hit-rate drift a truncated warm-up may
	// have left behind: the stability tolerance times the number of
	// doubling windows the stop skipped. Zero for a full warm-up. Its
	// square is added to every reported element variance.
	warmBias float64
	// pilotRates/pilotPF freeze the pilot-only means for cluster-skip
	// decisions and copied-variance inflation.
	pilotRates []float64
	pilotPF    float64
	// feat is the clustering feature point (nil when clustering is off or
	// the block is exact).
	feat []float64
	// skipped marks a cluster member that copies representative rep's
	// refined rates instead of refining itself.
	skipped bool
	rep     int
	// pendingSegs is the segment count the current refinement round
	// allocated to this block (consumed by refine).
	pendingSegs int
	// flushes accumulates slab flushes for the batched metrics update.
	flushes uint64
}

// sampled returns the number of measured (non-warm-up) references.
func (st *adaptiveBlock) sampled() int {
	if st.exact {
		return st.full
	}
	return len(st.segRates) * st.segL
}

// boundary reads the simulator accounting since the last boundary, advances
// the snapshot, and returns the interval's per-level cumulative hit rates
// and prefetch fills per reference over n references.
func (st *adaptiveBlock) boundary(n int) (rates []float64, pf float64) {
	c := st.sim.Counters()
	rates = make([]float64, len(c.LevelHits))
	var cum uint64
	for i, h := range c.LevelHits {
		cum += h
		rates[i] = float64(cum-st.lastCum[i]) / float64(n)
		st.lastCum[i] = cum
	}
	pf = float64(c.PrefetchFills-st.lastPF) / float64(n)
	st.lastPF = c.PrefetchFills
	return rates, pf
}

// record closes one batch-means segment of n references.
func (st *adaptiveBlock) record(n int) {
	rates, pf := st.boundary(n)
	st.segRates = append(st.segRates, rates)
	st.segPF = append(st.segPF, pf)
}

// levelStats returns the per-level mean and sample variance of the segment
// cumulative hit rates. With equal-length segments the mean equals the
// overall sampled rate, and variance/numSegments is the squared standard
// error of that rate (batch means).
func (st *adaptiveBlock) levelStats() (mean, s2 []float64) {
	n := len(st.segRates)
	levels := len(st.segRates[0])
	mean = make([]float64, levels)
	s2 = make([]float64, levels)
	for _, seg := range st.segRates {
		for l, r := range seg {
			mean[l] += r
		}
	}
	for l := range mean {
		mean[l] /= float64(n)
	}
	for _, seg := range st.segRates {
		for l, r := range seg {
			d := r - mean[l]
			s2[l] += d * d
		}
	}
	for l := range s2 {
		s2[l] /= float64(n - 1)
	}
	return mean, s2
}

// pfStats returns the mean and sample variance of the per-segment prefetch
// fills per reference.
func (st *adaptiveBlock) pfStats() (mean, s2 float64) {
	n := len(st.segPF)
	for _, v := range st.segPF {
		mean += v
	}
	mean /= float64(n)
	for _, v := range st.segPF {
		d := v - mean
		s2 += d * d
	}
	s2 /= float64(n - 1)
	return mean, s2
}

// needRefs returns the sample size the block's current variance estimate
// demands: for each level, enough batch-means segments that the standard
// error of the cumulative hit rate, relative to max(miss rate,
// missRateFloor), falls under the policy target — and never less than the
// policy floor, never more than the block cap.
func (st *adaptiveBlock) needRefs(pol SamplingPolicy) int {
	mean, s2 := st.levelStats()
	need := pol.MinRefs
	for l := range mean {
		denom := 1 - mean[l]
		if denom < missRateFloor {
			denom = missRateFloor
		}
		target := pol.TargetRelErr * denom
		segs := math.Ceil(s2[l] / (target * target))
		refs := int(segs) * st.segL
		if refs > need {
			need = refs
		}
	}
	if need > st.maxRefs {
		need = st.maxRefs
	}
	return need
}

// streamRecordRefs is streamRefs with a reuse-distance tap: every slab also
// feeds the recorder so the pilot yields the reuse histogram clustering
// operates on.
func streamRecordRefs(ctx context.Context, sim *cache.Simulator, gen addrgen.Generator, rec *cache.ReuseRecorder, hist *trace.ReuseHistogram, buf []uint64, n int) (uint64, error) {
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
		rec.Record(buf[:k], hist)
		n -= k
		flushes++
	}
	return flushes, nil
}

// warmAndPilot runs one block's warm-up and pilot pass (one arena unit).
func (st *adaptiveBlock) warmAndPilot(ctx context.Context, w *synthapp.Work, target machine.Config, cfg CollectorConfig, s *scratch) error {
	m := obs.From(ctx)
	sim, err := cache.NewSimulatorOpts(target.Caches, cache.Options{NextLinePrefetch: target.Prefetch})
	if err != nil {
		return err
	}
	st.sim = sim
	st.lastCum = make([]uint64, len(target.Caches))
	buf := s.slab(slabLen)
	pol := cfg.Sampling

	// Warm-up: stream doubling windows until the hierarchy is filled AND
	// consecutive windows show stable hit rates, capped at one pass over
	// the working set (the fixed policy's budget). On an early stop, the
	// remaining drift is bounded by the tolerance per skipped doubling;
	// that bound is carried as warmBias into the reported variances.
	warmCap := int(w.WorkingSetBytes / 8)
	if warmCap > DefaultMaxWarmRefs {
		warmCap = DefaultMaxWarmRefs
	}
	// fillFloor guards against stopping while the stream is still
	// cold-filling: window hit rates can sit perfectly flat while every
	// miss is a first touch, with capacity behavior only appearing once
	// the last level fills (or the whole working set has been touched,
	// whichever is smaller). Until the simulator has installed that many
	// lines, stability is not evidence of steady state.
	llc := target.Caches[len(target.Caches)-1]
	fillFloor := uint64(llc.SizeBytes / llc.LineSize)
	if wsLines := uint64(w.WorkingSetBytes / float64(llc.LineSize)); wsLines < fillFloor {
		fillFloor = wsLines
	}
	warmStart := time.Now()
	var prev []float64
	window := adaptiveWarmChunk
	transitioned := false
	for st.warm < warmCap {
		n := window
		if rem := warmCap - st.warm; n > rem {
			n = rem
		}
		flushes, err := streamRefs(ctx, sim, w.Gen, buf, n)
		st.flushes += flushes
		if err != nil {
			return err
		}
		st.warm += n
		rates, _ := st.boundary(n)
		c := sim.Counters()
		// The fill floor can also be waived once a capacity transition has
		// been observed: a delta spike means the stream outgrew a level's
		// capacity and started evicting, so a later window that re-
		// stabilizes across a doubling has seen steady-state churn — the
		// "flat while still cold-filling" trap no longer applies.
		filled := c.MemAccesses+c.PrefetchFills >= fillFloor
		if prev != nil {
			delta := maxAbsDelta(rates, prev)
			if delta >= adaptiveWarmTransition {
				transitioned = true
			}
			if (filled || transitioned) && delta <= adaptiveWarmTol {
				break
			}
		}
		prev = rates
		window = st.warm // double: the next window spans the stream so far
	}
	if st.warm < warmCap {
		st.warmBias = adaptiveWarmTol * math.Log2(float64(warmCap)/float64(st.warm))
	}
	m.Histogram("pebil.block_warm_seconds").Observe(time.Since(warmStart).Seconds())
	sim.ResetCounters()
	for i := range st.lastCum {
		st.lastCum[i] = 0
	}
	st.lastPF = 0

	// Pilot: blocks whose full stream fits in the pilot budget are
	// simulated exactly; the rest stream pilotSegments equal segments.
	sampleStart := time.Now()
	defer func() {
		m.Histogram("pebil.block_sample_seconds").Observe(time.Since(sampleStart).Seconds())
	}()
	st.full = int(w.Refs)
	if st.full < 1 {
		st.full = 1
	}
	if st.full <= pol.PilotRefs {
		st.exact = true
		flushes, err := streamRefs(ctx, sim, w.Gen, buf, st.full)
		st.flushes += flushes
		return err
	}
	st.maxRefs = pol.MaxRefs
	if st.full < st.maxRefs {
		st.maxRefs = st.full
	}
	st.segL = pol.PilotRefs / pilotSegments
	if st.segL < 1 {
		st.segL = 1
	}
	var rec *cache.ReuseRecorder
	var hist trace.ReuseHistogram
	if pol.ClusterBlocks {
		if rec, err = s.recorder(ReuseLineSize, pilotSegments*st.segL); err != nil {
			return err
		}
		hist.LineSize = ReuseLineSize
	}
	for seg := 0; seg < pilotSegments; seg++ {
		var flushes uint64
		if rec != nil {
			flushes, err = streamRecordRefs(ctx, sim, w.Gen, rec, &hist, buf, st.segL)
		} else {
			flushes, err = streamRefs(ctx, sim, w.Gen, buf, st.segL)
		}
		st.flushes += flushes
		if err != nil {
			return err
		}
		st.record(st.segL)
	}
	st.pilotRates, _ = st.levelStats()
	st.pilotPF, _ = st.pfStats()
	if pol.ClusterBlocks {
		st.feat = reuseFeatures(&hist, w.WorkingSetBytes)
	}
	return nil
}

// refine streams addRefs more references (a whole number of batch-means
// segments) through the block's simulator.
func (st *adaptiveBlock) refine(ctx context.Context, w *synthapp.Work, cfg CollectorConfig, s *scratch) error {
	buf := s.slab(slabLen)
	start := time.Now()
	segs := st.pendingSegs
	st.pendingSegs = 0
	for i := 0; i < segs; i++ {
		flushes, err := streamRefs(ctx, st.sim, w.Gen, buf, st.segL)
		st.flushes += flushes
		if err != nil {
			return err
		}
		st.record(st.segL)
	}
	obs.From(ctx).Histogram("pebil.block_sample_seconds").Observe(time.Since(start).Seconds())
	return nil
}

// maxAbsDelta returns the largest absolute elementwise difference.
func maxAbsDelta(a, b []float64) float64 {
	var d float64
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

// reuseFeatures summarizes a pilot reuse histogram into the clustering
// feature point: the stack-distance CDF at reuseFeatureEdges, the cold
// fraction, and the log-scaled working-set size.
func reuseFeatures(h *trace.ReuseHistogram, workingSetBytes float64) []float64 {
	total := float64(h.Refs)
	if total <= 0 {
		total = 1
	}
	out := make([]float64, 0, len(reuseFeatureEdges)+2)
	for _, edge := range reuseFeatureEdges {
		var cum uint64
		for b, cnt := range h.Counts {
			if trace.ReuseBucketDistance(b) <= edge {
				cum += cnt
			}
		}
		out = append(out, float64(cum)/total)
	}
	out = append(out, float64(h.Cold)/total)
	out = append(out, math.Log2(workingSetBytes+1)/40)
	return out
}

// clusterAssign runs deterministic k-means over the pilot reuse features
// and marks members whose pilot behavior matches their cluster
// representative (the member with the most references) as skipped. It
// returns the cluster count and the number of skipped blocks.
func clusterAssign(states []adaptiveBlock) (clusters, skipped int) {
	var idx []int
	for i := range states {
		if !states[i].exact && states[i].feat != nil {
			idx = append(idx, i)
		}
	}
	if len(idx) < minClusterBlocks {
		return 0, 0
	}
	points := make([][]float64, len(idx))
	for j, i := range idx {
		points[j] = states[i].feat
	}
	k := int(math.Round(math.Sqrt(float64(len(idx)))))
	if k < 1 {
		k = 1
	}
	if k > len(idx) {
		k = len(idx)
	}
	res, err := cluster.KMeans(points, k, clusterMaxIter, clusterSeed)
	if err != nil {
		return 0, 0 // clustering is an optimization; fall back to refining every block
	}
	reps := make([]int, k)
	for c := range reps {
		reps[c] = -1
	}
	for j, i := range idx {
		c := res.Assignments[j]
		if reps[c] < 0 || states[i].full > states[reps[c]].full {
			reps[c] = i
		}
	}
	for j, i := range idx {
		rep := reps[res.Assignments[j]]
		if rep == i || rep < 0 {
			continue
		}
		st, rs := &states[i], &states[rep]
		if maxAbsDelta(st.pilotRates, rs.pilotRates) > clusterRateTol ||
			math.Abs(st.pilotPF-rs.pilotPF) > clusterRateTol {
			continue
		}
		st.skipped = true
		st.rep = rep
		skipped++
	}
	return k, skipped
}

// planRefine computes one Neyman refinement round: every unconverged block
// requests the segments its variance estimate demands (capped at doubling
// its current sample and at the block cap), and the round budget is split
// proportionally to stratum size × estimated per-reference stddev. It
// returns the number of blocks with work scheduled (in their pendingSegs).
func planRefine(states []adaptiveBlock, pol SamplingPolicy) int {
	n := len(states)
	caps := make([]int, n)
	weights := make([]float64, n)
	var budget int
	var wsum float64
	for i := range states {
		st := &states[i]
		if st.exact || st.skipped || st.segL == 0 {
			continue
		}
		cur := st.sampled()
		avail := st.maxRefs/st.segL - len(st.segRates)
		if avail <= 0 {
			continue
		}
		need := st.needRefs(pol)
		if need <= cur {
			continue
		}
		segs := (need - cur + st.segL - 1) / st.segL
		if segs > len(st.segRates) {
			segs = len(st.segRates) // at most double per round
		}
		if segs > avail {
			segs = avail
		}
		caps[i] = segs
		budget += segs
		_, s2 := st.levelStats()
		var sigma float64
		for _, v := range s2 {
			if v > sigma {
				sigma = v
			}
		}
		// s2 is the variance of segment means; × segL rescales to the
		// per-reference stddev Neyman allocation weighs by.
		weights[i] = float64(st.full) * (math.Sqrt(sigma*float64(st.segL)) + 1e-12)
		wsum += weights[i]
	}
	if budget == 0 {
		return 0
	}
	active := 0
	for i := range states {
		if caps[i] == 0 {
			continue
		}
		share := int(float64(budget) * weights[i] / wsum)
		if share < 1 {
			share = 1
		}
		if share > caps[i] {
			share = caps[i]
		}
		states[i].pendingSegs = share
		active++
	}
	return active
}

// adaptiveCollect runs an adaptive collection: warm-up + pilot per block
// (parallel on the arena), cluster-skip assignment (serial), Neyman
// refinement rounds (planned serially, streamed in parallel), and assembly
// of per-block counters plus measurement uncertainty. cfg must be resolved
// (Validate + Normalized) with an adaptive policy. Results are
// bit-identical for any arena size: per-block simulator and
// generator state lives in block-indexed state, segment boundaries are
// fixed counts, and all allocation decisions are serial.
func (c *Collector) adaptiveCollect(ctx context.Context, app *synthapp.App, p int, target machine.Config, cfg CollectorConfig) ([]BlockCounters, *trace.SignatureUncertainty, error) {
	pol := cfg.Sampling
	if !pol.IsAdaptive() {
		return nil, nil, fmt.Errorf("pebil: adaptiveCollect with %q sampling", pol.Mode)
	}
	m := obs.From(ctx)
	sp := m.StartSpan("pebil.collect", fmt.Sprintf("%s@%d", app.Name(), p))
	defer sp.End()
	works, err := app.Work(p)
	if err != nil {
		return nil, nil, err
	}
	m.Gauge("pebil.workers").Set(float64(c.arena.width(len(works))))

	states := make([]adaptiveBlock, len(works))
	err = c.arena.run(ctx, len(works), func(i int, s *scratch) error {
		return states[i].warmAndPilot(ctx, &works[i], target, cfg, s)
	})
	if err != nil {
		return nil, nil, err
	}
	var warmTotal, pilotTotal uint64
	for i := range states {
		warmTotal += uint64(states[i].warm)
		if !states[i].exact {
			pilotTotal += uint64(states[i].sampled())
		}
	}
	m.Counter("pebil.warm_refs").Add(warmTotal)
	m.Counter("pebil.sampling.pilot_refs").Add(pilotTotal)

	if pol.ClusterBlocks {
		clusters, skipped := clusterAssign(states)
		m.Counter("pebil.sampling.clusters").Add(uint64(clusters))
		m.Counter("pebil.sampling.skipped_blocks").Add(uint64(skipped))
	}

	var refinedTotal uint64
	for round := 0; round < maxRefineRounds; round++ {
		if planRefine(states, pol) == 0 {
			break
		}
		var active []int
		for i := range states {
			if states[i].pendingSegs > 0 {
				active = append(active, i)
				refinedTotal += uint64(states[i].pendingSegs * states[i].segL)
			}
		}
		err = c.arena.run(ctx, len(active), func(j int, s *scratch) error {
			i := active[j]
			return states[i].refine(ctx, &works[i], cfg, s)
		})
		if err != nil {
			return nil, nil, err
		}
	}
	m.Counter("pebil.sampling.refined_refs").Add(refinedTotal)

	out := make([]BlockCounters, len(works))
	var uncBlocks []trace.BlockUncertainty
	dof := 0
	var sampleTotal, flushTotal uint64
	for i := range works {
		st := &states[i]
		flushTotal += st.flushes
		src := st
		if st.skipped {
			src = &states[st.rep]
		} else if st.exact {
			// Measured references for non-exact blocks are already counted
			// under sampling.pilot_refs / sampling.refined_refs; only the
			// exactly-simulated full streams land here, so that warm_refs +
			// sample_refs + pilot_refs + refined_refs is the true number of
			// simulated references with nothing counted twice.
			sampleTotal += uint64(st.full)
		}
		out[i] = BlockCounters{
			Spec:            works[i].Spec,
			Refs:            works[i].Refs,
			WorkingSetBytes: works[i].WorkingSetBytes,
			Counters:        src.sim.Counters(),
		}
		if src.exact {
			continue // simulated in full: zero measurement variance
		}
		nSeg := float64(len(src.segRates))
		_, s2 := src.levelStats()
		_, pfS2 := src.pfStats()
		bias2 := src.warmBias * src.warmBias // truncated warm-up allowance
		vars := make([]float64, trace.NumScalarElements+len(target.Caches))
		for l := range s2 {
			se2 := s2[l]/nSeg + bias2
			if st.skipped {
				gap := st.pilotRates[l] - src.pilotRates[l]
				se2 = se2*clusterVarInflation + gap*gap
			}
			vars[trace.NumScalarElements+l] = se2
		}
		pfVar := pfS2/nSeg + bias2
		if st.skipped {
			gap := st.pilotPF - src.pilotPF
			pfVar = pfVar*clusterVarInflation + gap*gap
		}
		vars[trace.NumScalarElements-1] = pfVar // prefetch_per_ref
		uncBlocks = append(uncBlocks, trace.BlockUncertainty{ID: works[i].Spec.ID, Vars: vars})
		if d := len(src.segRates) - 1; dof == 0 || d < dof {
			dof = d
		}
	}
	m.Counter("pebil.sample_refs").Add(sampleTotal)
	m.Counter("pebil.batch_flushes").Add(flushTotal)
	m.Counter("pebil.blocks").Add(uint64(len(works)))
	if len(uncBlocks) == 0 {
		return out, nil, nil
	}
	sort.Slice(uncBlocks, func(a, b int) bool { return uncBlocks[a].ID < uncBlocks[b].ID })
	if dof < 1 {
		dof = 1
	}
	return out, &trace.SignatureUncertainty{Dof: dof, Blocks: uncBlocks}, nil
}
