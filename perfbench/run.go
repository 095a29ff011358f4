package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"tracex/internal/obs"
)

type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	outDir  string
}

// workload is one benchmark workload: a closed loop of callers, each
// issuing its own seeded op sequence against one set-up.
type workload struct {
	callers int
	// tailPct is the percentile reported as tail_ms: a high one that held
	// steady across runs and keeps at least minBeyond samples beyond it
	// over a window of the configured length at minOpsPerSec.
	tailPct      float64
	minOpsPerSec float64
	// digestOps is how many leading ops (in op-index order) the digest and
	// the deterministic per-op counts cover.
	digestOps int
	// rootLayer names the layer an op's uncovered time belongs to.
	rootLayer string
	opAt      func(seed int64, phase, caller, j int) op
	setup     func(ctx context.Context, cfg runConfig) (instance, error)
}

// instance is one built set-up of a workload.
type instance interface {
	// do runs one op and checks its output. In a traced window tr is
	// non-nil and sp names the op's root span; calls the op made inside
	// the program that the benchmark repeats beside it go in the result's
	// replay, which runs once the root span has closed.
	do(ctx context.Context, o op, tr *tracer, sp opSpan) opResult
	registry() *obs.Registry
	// profile reports the set-up's MultiMAPS call: wall time and the
	// references it simulated.
	profile() (time.Duration, float64)
	close() error
}

// opResult is one op's outcome.
type opResult struct {
	err error
	// out is the op's output, canonically encoded, for the digest.
	out []byte
	// repeat reports that the op's identity was already seen in the run.
	repeat bool
	counts opCounts
	// retries counts the HTTP round trips beyond the op's first.
	retries int
	// errPct is a study's |extrapolated - collected| / collected in %.
	errPct float64
	// replay repeats, in a traced window, the calls the server made
	// inside the op (see instance.do).
	replay func() error
}

// opCounts are the op's work counts that repeat exactly for a given op.
type opCounts struct {
	pebilRefs, psinsEvents, extrapFits, respBytes float64
}

// window is what one timed window measured.
type window struct {
	all               latStats // the successful ops' latencies
	attempted, failed int
	firstErr          error
	wall, cpu         float64 // s
	steal             float64 // % of host ticks, -1 if unknown
	gc                gcState // delta over the window
	// heapMB is the live heap once the window's per-op records are gone:
	// they grow with the ops completed and are the benchmark's, not the
	// program's.
	heapMB           float64
	repeats, retries int
	head             []opResult // the first digestOps ops in op-index order
	// quiet is the window restricted to its quiet slices (see quietSlices).
	quiet quietStats
}

// opTime is one successful op: when it ended and how long it took.
type opTime struct {
	end int64 // ns since the window began
	ms  float64
}

// sample is one reading of the slice sampler.
type sample struct {
	at    int64 // ns since the window began
	ticks hostTicks
	terr  error
	cpu   float64
}

// runWindow runs every caller's closed loop for the given duration.
func runWindow(ctx context.Context, wl *workload, inst instance, seed int64, phase int, seconds float64, tr *tracer) *window {
	perCaller := make([][]opResult, wl.callers)
	headPer := (wl.digestOps + wl.callers - 1) / wl.callers
	type tally struct {
		ops               []opTime
		attempted, failed int
		repeats, retries  int
		firstErr          error
	}
	tallies := make([]tally, wl.callers)

	runtime.GC()
	gc0 := readGC()
	start := time.Now()
	read := func() sample {
		t, err := readHostTicks()
		return sample{at: int64(time.Since(start)), ticks: t, terr: err, cpu: cpuSeconds()}
	}
	samples := []sample{read()}
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(sliceLen)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				samples = append(samples, read())
			case <-done:
				return
			}
		}
	}()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < wl.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tallies[c]
			for j := 0; time.Now().Before(deadline) && ctx.Err() == nil; j++ {
				o := wl.opAt(seed, phase, c, j)
				r, t0, t1 := runOp(ctx, wl, inst, o, tr)
				t.attempted++
				if r.err != nil {
					t.failed++
					if t.firstErr == nil {
						t.firstErr = fmt.Errorf("op %d (%s): %w", o.index, o.kind, r.err)
					}
				} else {
					t.ops = append(t.ops, opTime{end: int64(t1.Sub(start)), ms: float64(t1.Sub(t0)) / 1e6})
				}
				if r.repeat {
					t.repeats++
				}
				t.retries += r.retries
				if j < headPer {
					perCaller[c] = append(perCaller[c], r)
				}
			}
		}(c)
	}
	wg.Wait()
	close(done)
	<-sampled
	last := read()
	samples = append(samples, last)
	w := &window{wall: float64(last.at) / 1e9, cpu: last.cpu - samples[0].cpu}
	w.steal = stealPct(samples[0].ticks, last.ticks, samples[0].terr, last.terr)
	gc1 := readGC()
	w.gc = gcState{totalAlloc: gc1.totalAlloc - gc0.totalAlloc, numGC: gc1.numGC - gc0.numGC}
	var ops []opTime
	for _, t := range tallies {
		ops = append(ops, t.ops...)
		w.attempted += t.attempted
		w.failed += t.failed
		w.repeats += t.repeats
		w.retries += t.retries
		if w.firstErr == nil {
			w.firstErr = t.firstErr
		}
	}
	lat := make([]float64, len(ops))
	for i, o := range ops {
		lat[i] = o.ms
	}
	w.all = summarize(lat, wl.tailPct)
	w.quiet = quietSlices(samples, ops, wl.tailPct)
	// Interleave the callers' leading ops back into op-index order, up to
	// the first gap.
	for i := 0; i < wl.digestOps; i++ {
		c, j := i%wl.callers, i/wl.callers
		if j >= len(perCaller[c]) {
			break
		}
		w.head = append(w.head, perCaller[c][j])
	}
	w.heapMB = liveHeapMB()
	return w
}

// runOp runs one op and returns its result with the times it began and
// ended. In a traced window the op's root span covers exactly that
// interval, and the op's replayed calls run after it, outside both the
// root span and the op's latency.
func runOp(ctx context.Context, wl *workload, inst instance, o op, tr *tracer) (r opResult, t0, t1 time.Time) {
	var sp opSpan
	if tr != nil {
		sp = opSpan{index: o.index, root: tr.newID()}
	}
	t0 = time.Now()
	r = inst.do(ctx, o, tr, sp)
	t1 = time.Now()
	if tr != nil {
		tr.add(span{ID: sp.root, Op: o.index, Name: "op", Layer: wl.rootLayer, Start: tr.at(t0), End: tr.at(t1)})
		if r.replay != nil {
			r.err = errors.Join(r.err, r.replay())
		}
	}
	return r, t0, t1
}

// latStats summarises a set of op latencies (ms).
type latStats struct {
	n         int
	p50, tail float64 // tail is the workload's tail percentile
}

// summarize sorts lat in place.
func summarize(lat []float64, tailPct float64) latStats {
	return latStats{n: len(lat), p50: median(lat), tail: percentile(lat, tailPct)}
}

// quietStats is a window restricted to its quiet slices.
type quietStats struct {
	lat     latStats // the ops that ended in a quiet slice
	seconds float64  // total length of the quiet slices
	cpu     float64  // process CPU seconds within them
	steal   float64  // their share of stolen host ticks, %
	share   float64  // their share of the window's time
}

const (
	// sliceLen is the granularity at which a window's quiet time is
	// selected: 50 host ticks per vCPU, and several ops long on every
	// workload.
	sliceLen = 500 * time.Millisecond
	// quietPct is the percentile of slice steal at or below which a slice
	// is kept (see quietSlices).
	quietPct = 10
	// minBeyond is how many samples tail_ms needs above its percentile.
	minBeyond = 10
)

// quietSlices keeps the slices of a window whose hypervisor steal is at
// most the quietPct-th percentile of its slices' steal. On a shared host,
// steal arrives in bursts of a fraction of a second to minutes and slows
// every op it overlaps; measuring only the quietest part of a window
// measures the program rather than its neighbours. When the kept slices
// hold too few ops for minBeyond samples beyond the tailPct-th percentile,
// further slices are kept in order of increasing steal until they do, or
// until the whole window is kept. The selection reads the host's steal
// counter and the number of ops per slice, never the ops' timings. An op
// belongs to the slice it ended in. Without /proc/stat every slice ties at
// -1 and is kept.
func quietSlices(samples []sample, ops []opTime, tailPct float64) quietStats {
	n := len(samples) - 1
	steal := make([]float64, n)
	for i := range steal {
		steal[i] = stealPct(samples[i].ticks, samples[i+1].ticks, samples[i].terr, samples[i+1].terr)
	}
	cut := percentile(append([]float64(nil), steal...), quietPct)
	inSlice := make([][]float64, n)
	for _, o := range ops {
		// samples are in time order; find the slice the op ended in.
		i := sort.Search(n, func(i int) bool { return samples[i+1].at >= o.end })
		if i < n {
			inSlice[i] = append(inSlice[i], o.ms)
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return steal[order[a]] < steal[order[b]] })
	var q quietStats
	var lat []float64
	var stolen, total uint64
	for _, i := range order {
		if steal[i] > cut && beyond(len(lat), tailPct) >= minBeyond {
			break
		}
		lat = append(lat, inSlice[i]...)
		q.seconds += float64(samples[i+1].at-samples[i].at) / 1e9
		q.cpu += samples[i+1].cpu - samples[i].cpu
		stolen += samples[i+1].ticks.steal - samples[i].ticks.steal
		total += samples[i+1].ticks.total - samples[i].ticks.total
	}
	q.lat = summarize(lat, tailPct)
	if total > 0 {
		q.steal = 100 * float64(stolen) / float64(total)
	}
	if span := float64(samples[n].at-samples[0].at) / 1e9; span > 0 {
		q.share = q.seconds / span
	}
	return q
}

func (w *window) ok() int { return w.attempted - w.failed }

// digest hashes the leading ops' outputs in op-index order.
func (w *window) digest() string {
	h := sha256.New()
	for _, r := range w.head {
		h.Write(r.out)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// headMean averages one count over the leading ops.
func (w *window) headMean(f func(opResult) float64) float64 {
	if len(w.head) == 0 {
		return 0
	}
	var s float64
	for _, r := range w.head {
		s += f(r)
	}
	return s / float64(len(w.head))
}

// runWorkload sets the workload up, runs its timed window (and, traced,
// a second traced window) and returns the result line.
func runWorkload(ctx context.Context, name string, wl *workload, cfg runConfig, out io.Writer) (*result, error) {
	repeats := setupRepeats
	if cfg.traced {
		repeats = 1
	}
	var setups, setupSteal []float64
	var inst instance
	for i := 0; i < repeats; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("tearing down set-up %d: %w", i, err)
			}
		}
		ticks0, terr0 := readHostTicks()
		t := time.Now()
		var err error
		if inst, err = wl.setup(ctx, cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		ticks1, terr1 := readHostTicks()
		setupSteal = append(setupSteal, stealPct(ticks0, ticks1, terr0, terr1))
	}
	defer inst.close()

	seconds := cfg.seconds
	if cfg.traced {
		seconds /= 2
	}
	main := runWindow(ctx, wl, inst, cfg.seed, phaseMain, seconds, nil)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if main.ok() == 0 {
		return nil, fmt.Errorf("no op completed: %v", main.firstErr)
	}
	fmt.Fprintf(out, "%s seed %d: %d ops (%d failed) in %.2f s, %d closed-loop callers\n",
		name, cfg.seed, main.attempted, main.failed, main.wall, wl.callers)
	if main.firstErr != nil {
		fmt.Fprintf(out, "first failure: %v\n", main.firstErr)
	}
	if b := beyond(main.quiet.lat.n, wl.tailPct); b < minBeyond && !cfg.traced {
		return nil, fmt.Errorf("the window completed %d ops, %d beyond p%g; tail_ms needs %d: run longer",
			main.ok(), b, wl.tailPct, minBeyond)
	}
	noise, _ := json.Marshal(map[string]float64{
		"steal_pct":       main.steal,
		"quiet_steal_pct": main.quiet.steal,
		"quiet_share":     main.quiet.share,
		"cpu_share":       main.cpu / (main.wall * float64(runtime.NumCPU())),
		"repeat_share":    float64(main.repeats) / float64(main.attempted),
	})
	fmt.Fprintf(out, "noise %s\n", noise)
	fmt.Fprintf(out, "digest %s over the first %d ops\n", main.digest(), len(main.head))
	if e := main.headMean(func(r opResult) float64 { return r.errPct }); e > 0 {
		fmt.Fprintf(out, "pred_err_pct %.6f over the first %d studies\n", e, len(main.head))
	}

	res := &result{
		Correct:   main.failed == 0,
		Attempted: main.attempted,
		Failed:    main.failed,
		Metrics:   map[string]metric{},
	}
	if !cfg.traced {
		q := main.quiet
		res.Metrics = endToEndMetrics(main, setups)
		all := float64(main.ok())
		fmt.Fprintf(out, "whole window: p50_ms %.4f tail_ms %.4f ops_per_s %.4f cpu_ms %.4f\n",
			main.all.p50, main.all.tail, all/main.wall, 1000*main.cpu/all)
		fmt.Fprintf(out, "set-ups %v s with host steal %v %%; tail_ms is p%g with %d samples beyond it\n",
			setups, setupSteal, wl.tailPct, beyond(q.lat.n, wl.tailPct))
		return res, nil
	}

	reg := inst.registry()
	before := counters(reg)
	stages0 := stageCounts(reg)
	tr := newTracer()
	traced := runWindow(ctx, wl, inst, cfg.seed, phaseTraced, seconds, tr)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	after := counters(reg)
	stages1 := stageCounts(reg)
	res.Correct = res.Correct && traced.failed == 0
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	if traced.firstErr != nil {
		fmt.Fprintf(out, "first traced failure: %v\n", traced.firstErr)
	}
	spanFile := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, cfg.seed))
	spans := tr.snapshot()
	if err := writeSpans(spanFile, spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	lt := attribute(spans)
	fmt.Fprintf(out, "traced: %d ops, %d spans in %s, layer calls cover %.1f%% of op time\n",
		traced.attempted, len(spans), spanFile, 100*lt.coverage)
	for _, st := range []string{"engine.collect", "engine.predict"} {
		fmt.Fprintf(out, "cross-check %s: program stages %d, benchmark spans %d\n",
			st, stages1[st]-stages0[st], lt.calls[st])
	}
	profDur, profRefs := inst.profile()
	res.Metrics = layerMetrics(lt, traced, main, before, after, profDur, profRefs)
	return res, nil
}

// endToEndMetrics are an untraced run's metrics: the median set-up, the
// rest over the window's quiet slices (heap_mb at its end).
func endToEndMetrics(w *window, setups []float64) map[string]metric {
	q := w.quiet
	n := float64(q.lat.n)
	return map[string]metric{
		"setup_s":   {median(setups), "s"},
		"p50_ms":    {q.lat.p50, "ms"},
		"tail_ms":   {q.lat.tail, "ms"},
		"ops_per_s": {n / q.seconds, "1/s"},
		"cpu_ms":    {1000 * q.cpu / n, "ms"},
		"heap_mb":   {w.heapMB, "MB"},
	}
}

// counters reads every counter and gauge of the registry.
func counters(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, m := range reg.Snapshot().Metrics {
		out[m.Name] = m.Value
	}
	return out
}

// stageCounts reads the program's own per-stage span counts.
func stageCounts(reg *obs.Registry) map[string]uint64 {
	out := map[string]uint64{}
	for _, s := range reg.SpanSummaries() {
		out[s.Name] = s.Count
	}
	return out
}

// layerMetrics assembles the per-layer metrics of a traced run. Times are
// per op of the traced window; the work counts that repeat exactly come
// from its leading ops; the Go runtime's counts come from the untraced
// window.
func layerMetrics(lt layerTimes, tw, mw *window, before, after map[string]float64, profDur time.Duration, profRefs float64) map[string]metric {
	ops := float64(lt.ops)
	if ops == 0 {
		ops = 1
	}
	perOpMs := func(ns int64) float64 { return float64(ns) / 1e6 / ops }
	delta := func(name string) float64 { return after[name] - before[name] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	lookups := 0
	for _, n := range lt.tiers {
		lookups += n
	}
	pebilRefs := delta("pebil.warm_refs") + delta("pebil.sample_refs")
	hits, misses := delta("server.store.read_hits"), delta("server.store.read_misses")
	mainOK := float64(mw.ok())
	m := map[string]metric{
		"pebil.ms":                   {perOpMs(lt.self["pebil"]), "ms"},
		"pebil.refs":                 {tw.headMean(func(r opResult) float64 { return r.counts.pebilRefs }), "count"},
		"pebil.ns_per_ref":           {ratio(float64(lt.self["pebil"]), pebilRefs), "ns"},
		"psins.ms":                   {perOpMs(lt.self["psins"]), "ms"},
		"psins.events":               {tw.headMean(func(r opResult) float64 { return r.counts.psinsEvents }), "count"},
		"psins.ns_per_event":         {ratio(float64(lt.self["psins"]), delta("psins.events")), "ns"},
		"multimaps.ms":               {float64(profDur) / 1e6, "ms"},
		"multimaps.refs":             {profRefs, "count"},
		"extrap.ms":                  {perOpMs(lt.self["extrap"]), "ms"},
		"extrap.fits":                {tw.headMean(func(r opResult) float64 { return r.counts.extrapFits }), "count"},
		"extrap.err_pct":             {tw.headMean(func(r opResult) float64 { return r.errPct }), "%"},
		"engine.tier_us":             {1000 * perOpMs(lt.self["engine"]), "us"},
		"engine.memory_share":        {ratio(float64(lt.tiers["memory"]), float64(lookups)), "1"},
		"engine.disk_share":          {ratio(float64(lt.tiers["disk"]), float64(lookups)), "1"},
		"store.get_us":               {ratio(float64(lt.diskNS), float64(lt.tiers["disk"])) / 1e3, "us"},
		"store.put_ms":               {perOpMs(lt.byName["store.put"]), "ms"},
		"store.read_bytes":           {delta("store.bytes_read") / ops, "bytes"},
		"store.written_bytes":        {delta("store.bytes_written") / ops, "bytes"},
		"store.read_cache_hit_ratio": {ratio(hits, hits+misses), "1"},
		"server.overhead_ms":         {perOpMs(lt.self["server"]), "ms"},
		"server.rejected":            {delta("server.rejected") / ops, "count"},
		"wire.decode_us":             {1000 * perOpMs(lt.byName["wire.decode"]), "us"},
		"wire.encode_us":             {1000 * perOpMs(lt.byName["wire.encode"]), "us"},
		"wire.resp_bytes":            {tw.headMean(func(r opResult) float64 { return r.counts.respBytes }), "bytes"},
		"client.retries":             {float64(tw.retries) / ops, "count"},
		"gc.alloc_kb":                {ratio(float64(mw.gc.totalAlloc)/1024, mainOK), "KiB"},
		"gc.cycles":                  {ratio(float64(mw.gc.numGC), mainOK), "count"},
		"trace.overhead_ms":          {tw.all.p50 - mw.all.p50, "ms"},
		"trace.coverage":             {lt.coverage, "1"},
	}
	return m
}
