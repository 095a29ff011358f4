package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tracex"
	"tracex/client"
	"tracex/internal/obs"
	"tracex/wire"
)

// This file is the harness core: the operation mix, key-popularity and
// deadline distributions, the open- and closed-loop drivers, and the
// client-side latency accounting. main.go owns flags, the optional
// in-process daemon and the BENCH_serve.json output.

// opKind enumerates the request types the generator mixes.
type opKind int

const (
	opPredict opKind = iota // POST /v1/predict by (app, cores, machine) triple
	opGet                   // GET /v1/signatures/{key} — the store fast path
	opPut                   // PUT /v1/signatures/{key}
	opStudy                 // POST /v1/study — the expensive pipeline
	numOps
)

var opNames = [numOps]string{"predict", "get", "put", "study"}

// Mix is a weighted operation mix.
type Mix struct {
	Weights [numOps]int
	total   int
}

// parseMix parses "predict=6,get=3,put=1,study=0". Omitted operations get
// weight zero; at least one weight must be positive.
func parseMix(s string) (Mix, error) {
	var m Mix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return Mix{}, fmt.Errorf("mix term %q is not name=weight", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return Mix{}, fmt.Errorf("mix weight %q is not a non-negative integer", val)
		}
		idx := -1
		for i, n := range opNames {
			if n == name {
				idx = i
				break
			}
		}
		if idx < 0 {
			return Mix{}, fmt.Errorf("unknown operation %q (want predict, get, put or study)", name)
		}
		m.Weights[idx] = w
	}
	for _, w := range m.Weights {
		m.total += w
	}
	if m.total == 0 {
		return Mix{}, errors.New("mix has no positive weight")
	}
	return m, nil
}

// String renders the mix back in flag form.
func (m Mix) String() string {
	parts := make([]string, 0, numOps)
	for i, w := range m.Weights {
		if w > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", opNames[i], w))
		}
	}
	return strings.Join(parts, ",")
}

// pick draws one operation from the mix.
func (m Mix) pick(r *rand.Rand) opKind {
	n := r.IntN(m.total)
	for i, w := range m.Weights {
		if n < w {
			return opKind(i)
		}
		n -= w
	}
	return opPredict // unreachable
}

// DeadlineDist is a per-request deadline distribution.
type DeadlineDist struct {
	Kind string // "none", "fixed", "uniform" or "exp"
	// Base is the fixed deadline or the exponential mean; Min/Max bound the
	// uniform draw.
	Base, Min, Max time.Duration
}

// parseDeadlines parses "none", "fixed:200ms", "uniform:50ms-500ms" or
// "exp:200ms".
func parseDeadlines(s string) (DeadlineDist, error) {
	if s == "" || s == "none" {
		return DeadlineDist{Kind: "none"}, nil
	}
	kind, arg, ok := strings.Cut(s, ":")
	if !ok {
		return DeadlineDist{}, fmt.Errorf("deadline spec %q is not kind:args", s)
	}
	switch kind {
	case "fixed", "exp":
		d, err := time.ParseDuration(arg)
		if err != nil || d <= 0 {
			return DeadlineDist{}, fmt.Errorf("deadline %q needs a positive duration", s)
		}
		return DeadlineDist{Kind: kind, Base: d}, nil
	case "uniform":
		lo, hi, ok := strings.Cut(arg, "-")
		if !ok {
			return DeadlineDist{}, fmt.Errorf("uniform deadline %q is not min-max", s)
		}
		dlo, err1 := time.ParseDuration(lo)
		dhi, err2 := time.ParseDuration(hi)
		if err1 != nil || err2 != nil || dlo <= 0 || dhi < dlo {
			return DeadlineDist{}, fmt.Errorf("uniform deadline %q needs 0 < min <= max", s)
		}
		return DeadlineDist{Kind: kind, Min: dlo, Max: dhi}, nil
	default:
		return DeadlineDist{}, fmt.Errorf("unknown deadline kind %q (want none, fixed, uniform or exp)", kind)
	}
}

// String renders the distribution back in flag form.
func (d DeadlineDist) String() string {
	switch d.Kind {
	case "fixed", "exp":
		return d.Kind + ":" + d.Base.String()
	case "uniform":
		return "uniform:" + d.Min.String() + "-" + d.Max.String()
	default:
		return "none"
	}
}

// draw returns one deadline; zero means none.
func (d DeadlineDist) draw(r *rand.Rand) time.Duration {
	switch d.Kind {
	case "fixed":
		return d.Base
	case "uniform":
		return d.Min + time.Duration(r.Int64N(int64(d.Max-d.Min)+1))
	case "exp":
		return time.Duration(r.ExpFloat64() * float64(d.Base))
	default:
		return 0
	}
}

// keyPicker draws key indices: uniform, or Zipf-skewed so a few keys are
// hot (the store fast path's cache-friendly regime).
type keyPicker struct {
	keys int
	zipf *rand.Zipf // nil = uniform
}

func newKeyPicker(r *rand.Rand, keys int, s float64) *keyPicker {
	p := &keyPicker{keys: keys}
	if s > 0 {
		// rand.Zipf requires s > 1; v = 1 puts the mode at index 0.
		p.zipf = rand.NewZipf(r, s, 1, uint64(keys-1))
	}
	return p
}

func (p *keyPicker) pick(r *rand.Rand) int {
	if p.zipf != nil {
		return int(p.zipf.Uint64())
	}
	return r.IntN(p.keys)
}

// LoadConfig parameterizes one load run.
type LoadConfig struct {
	// Targets addresses the daemons under load; workers round-robin across
	// them, so a multi-element list spreads one workload over a fleet. A
	// single element is the classic single-daemon run.
	Targets []string
	// Duration is total wall-clock including Warmup; only requests that
	// complete inside the post-warmup measurement window are recorded.
	Duration, Warmup time.Duration
	// Rate is the open-loop arrival rate in requests/second (Poisson);
	// 0 runs closed-loop with Workers back-to-back requesters.
	Rate float64
	// Workers is the closed-loop concurrency, and in open loop the bound on
	// outstanding requests (arrivals beyond it count as Dropped).
	Workers int
	// Mix weights the operations.
	Mix Mix
	// Zipf is the key-popularity skew (0 = uniform; otherwise s > 1).
	Zipf float64
	// Keys is the number of distinct signature identities in play.
	Keys int
	// Deadline draws each request's client-side deadline.
	Deadline DeadlineDist
	// SampleRefs is the per-block sample length of every collection the
	// load requests, sent as a fixed sampling policy (0 = server default).
	SampleRefs int
	// Seed makes a run's arrival pattern reproducible.
	Seed uint64
}

func (c LoadConfig) validate() error {
	if len(c.Targets) == 0 {
		return errors.New("no target address")
	}
	for _, t := range c.Targets {
		if t == "" {
			return errors.New("empty target address")
		}
	}
	if c.Duration <= c.Warmup {
		return fmt.Errorf("duration %s must exceed warmup %s", c.Duration, c.Warmup)
	}
	if c.Workers <= 0 {
		return errors.New("workers must be positive")
	}
	if c.Keys <= 0 || c.Keys > loadMaxKeys {
		return fmt.Errorf("keys must be in [1, %d]", loadMaxKeys)
	}
	if c.Zipf != 0 && c.Zipf <= 1 {
		return fmt.Errorf("zipf skew %g: the Zipf s parameter must exceed 1 (or be 0 for uniform)", c.Zipf)
	}
	if c.Rate < 0 {
		return errors.New("rate must be non-negative")
	}
	return nil
}

// OpReport is one operation's client-side latency summary (milliseconds).
type OpReport struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
}

// Report is one run's result, keyed by label in BENCH_serve.json.
type Report struct {
	// Configuration echo.
	Target          string  `json:"target"`
	Mix             string  `json:"mix"`
	Workers         int     `json:"workers"`
	RateRPS         float64 `json:"rate_rps"` // 0 = closed loop
	Zipf            float64 `json:"zipf"`     // 0 = uniform
	Keys            int     `json:"keys"`
	Deadline        string  `json:"deadline"`
	Seed            uint64  `json:"seed"`
	WarmupSeconds   float64 `json:"warmup_seconds"`
	MeasuredSeconds float64 `json:"measured_seconds"`

	// Outcomes over the measurement window.
	Requests      uint64              `json:"requests"`
	Dropped       uint64              `json:"dropped"` // open loop: arrivals shed at the outstanding bound
	Status        map[string]uint64   `json:"status"`
	ThroughputRPS float64             `json:"throughput_rps"`
	Overall       OpReport            `json:"overall"`
	Ops           map[string]OpReport `json:"ops"`
}

// loadStats accumulates outcomes; the histograms only see requests that
// complete inside the measurement window.
type loadStats struct {
	measuring atomic.Bool
	requests  atomic.Uint64
	dropped   atomic.Uint64
	s2xx      atomic.Uint64
	s429      atomic.Uint64
	s4xx      atomic.Uint64
	s5xx      atomic.Uint64
	deadline  atomic.Uint64 // client-side deadline/cancel expiries
	errs      atomic.Uint64 // transport failures
	perOp     [numOps]*obs.Histogram
	overall   *obs.Histogram
}

func newLoadStats() *loadStats {
	reg := obs.New()
	st := &loadStats{overall: reg.Histogram("load.latency", obs.DefLatencyBuckets()...)}
	for i := range st.perOp {
		st.perOp[i] = reg.Histogram("load.latency."+opNames[i], obs.DefLatencyBuckets()...)
	}
	return st
}

// record files one completed request issued inside the measurement window.
func (st *loadStats) record(op opKind, d time.Duration, err error) {
	st.requests.Add(1)
	st.perOp[op].Observe(d.Seconds())
	st.overall.Observe(d.Seconds())
	switch {
	case err == nil:
		st.s2xx.Add(1)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		st.deadline.Add(1)
	default:
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) {
			st.errs.Add(1)
			return
		}
		switch {
		case apiErr.Status == 429:
			st.s429.Add(1)
		case apiErr.Status >= 500:
			st.s5xx.Add(1)
		default:
			st.s4xx.Add(1)
		}
	}
}

func opReport(h *obs.Histogram) OpReport {
	r := OpReport{Count: h.Count()}
	if r.Count == 0 {
		// Quantile would be NaN here, and NaN is unmarshalable JSON.
		return r
	}
	r.MeanMs = 1000 * h.Sum() / float64(r.Count)
	r.P50Ms = 1000 * h.Quantile(0.50)
	r.P99Ms = 1000 * h.Quantile(0.99)
	r.P999Ms = 1000 * h.Quantile(0.999)
	return r
}

// loadApp and loadMachine fix the identity space the generator plays in.
// stencil3d is defined for 8..16384 cores, so key k maps to loadBaseCores+k.
const (
	loadApp       = "stencil3d"
	loadMachine   = "bluewaters"
	loadBaseCores = 8
	loadMaxKeys   = 16384 - loadBaseCores + 1
)

// workload is the prebuilt request material: one real signature per key,
// collected through the API (which warms the engine's caches exactly like
// production traffic would) and seeded into the store so GETs hit.
type workload struct {
	cfg LoadConfig
	// clients holds one client per target; worker w drives
	// clients[w % len(clients)], a static round-robin that keeps each
	// worker's connection pool pinned to one daemon.
	clients []*client.Client
	keys    []string
	sigs    []*tracex.Signature
	preds   []*wire.PredictRequest
	study   *wire.StudyRequest
}

// client returns the target client for one worker sequence number.
func (w *workload) client(seq uint64) *client.Client {
	return w.clients[seq%uint64(len(w.clients))]
}

// seedConcurrency bounds parallel seeding collections so setup does not
// trip the daemon's own admission control.
const seedConcurrency = 4

// newWorkload builds the key space: key k is the identity
// (stencil3d, loadBaseCores+k, bluewaters). Each key's signature is
// collected once via POST /v1/signatures on the first target and imported
// via PUT into every target, so during the run GETs resolve from each
// node's store and triple predicts ride the engines' warm memos — the
// serving regime, not the collection regime. Seeding is outside the
// measurement window by construction.
func newWorkload(ctx context.Context, cfg LoadConfig) (*workload, error) {
	var sampling string
	if cfg.SampleRefs > 0 {
		sampling = tracex.FixedSampling(cfg.SampleRefs, 0).String()
	}
	w := &workload{
		cfg: cfg,
		// Retries tolerate admission pushback, both during seeding bursts
		// and when a measured run is pushed past a node's capacity.
		clients: make([]*client.Client, len(cfg.Targets)),
		keys:    make([]string, cfg.Keys),
		sigs:    make([]*tracex.Signature, cfg.Keys),
		preds:   make([]*wire.PredictRequest, cfg.Keys),
		study: &wire.StudyRequest{
			App: loadApp, Machine: loadMachine,
			InputCounts: []int{8, 16}, TargetCores: 32,
			Sampling: sampling,
		},
	}
	for i, t := range cfg.Targets {
		w.clients[i] = client.New(t, client.WithRetries(5))
	}
	sem := make(chan struct{}, seedConcurrency)
	errs := make(chan error, cfg.Keys)
	var wg sync.WaitGroup
	for k := 0; k < cfg.Keys; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			cores := loadBaseCores + k
			coll, err := w.clients[0].Collect(ctx, &wire.SignatureRequest{
				App: loadApp, Cores: cores, Machine: loadMachine,
				Sampling: sampling,
			})
			if err != nil {
				errs <- fmt.Errorf("seeding collect at %d cores: %w", cores, err)
				return
			}
			key := client.Key(loadApp, cores, loadMachine)
			for i, cl := range w.clients {
				if _, err := cl.PutSignature(ctx, key, coll.Signature); err != nil {
					errs <- fmt.Errorf("seeding put %s to %s: %w", key, cfg.Targets[i], err)
					return
				}
			}
			w.keys[k] = key
			w.sigs[k] = coll.Signature
			w.preds[k] = &wire.PredictRequest{
				App: loadApp, Cores: cores, Machine: loadMachine,
				Sampling: sampling,
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}
	// One throwaway predict per target warms the machine profile: the
	// MultiMAPS bandwidth surface is lazily built and memoized per machine,
	// and it is by far the most expensive single computation on the predict
	// path. Paying it here keeps the measurement window in the serving
	// regime instead of hiding one giant cold probe inside each node's
	// first measured predict.
	for i, cl := range w.clients {
		if _, err := cl.Predict(ctx, w.preds[0]); err != nil {
			return nil, fmt.Errorf("seeding warm predict on %s: %w", cfg.Targets[i], err)
		}
	}
	return w, nil
}

// issue sends one request through cl and reports its operation, latency
// and outcome.
func (w *workload) issue(ctx context.Context, cl *client.Client, r *rand.Rand, picker *keyPicker) (opKind, time.Duration, error) {
	op := w.cfg.Mix.pick(r)
	k := picker.pick(r)
	if d := w.cfg.Deadline.draw(r); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	start := time.Now()
	var err error
	switch op {
	case opPredict:
		_, err = cl.Predict(ctx, w.preds[k])
	case opGet:
		_, err = cl.GetSignature(ctx, w.keys[k])
	case opPut:
		_, err = cl.PutSignature(ctx, w.keys[k], w.sigs[k])
	case opStudy:
		_, err = cl.Study(ctx, w.study)
	}
	return op, time.Since(start), err
}

// runLoad executes one configured run against a live daemon and summarizes
// the measurement window.
func runLoad(ctx context.Context, cfg LoadConfig) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	w, err := newWorkload(ctx, cfg)
	if err != nil {
		return nil, err
	}
	st := newLoadStats()

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	worker := func(seq uint64, next func() bool) {
		defer wg.Done()
		cl := w.client(seq)
		r := rand.New(rand.NewPCG(cfg.Seed, seq))
		picker := newKeyPicker(r, cfg.Keys, cfg.Zipf)
		for next() {
			measured := st.measuring.Load()
			op, d, err := w.issue(runCtx, cl, r, picker)
			if measured && st.measuring.Load() {
				st.record(op, d, err)
			}
		}
	}

	if cfg.Rate == 0 {
		// Closed loop: Workers requesters issue back-to-back.
		for i := 0; i < cfg.Workers; i++ {
			wg.Add(1)
			go worker(uint64(i), func() bool { return runCtx.Err() == nil })
		}
	} else {
		// Open loop: Poisson arrivals at the target rate, independent of
		// response times. Outstanding requests are bounded by Workers;
		// arrivals that would exceed the bound are shed and counted, so a
		// saturated server shows up as drops rather than a silently
		// throttled generator.
		wg.Add(1)
		go func() {
			defer wg.Done()
			arr := rand.New(rand.NewPCG(cfg.Seed, ^uint64(0)))
			sem := make(chan struct{}, cfg.Workers)
			var inner sync.WaitGroup
			defer inner.Wait()
			for seq := uint64(0); ; seq++ {
				wait := time.Duration(arr.ExpFloat64() / cfg.Rate * float64(time.Second))
				select {
				case <-runCtx.Done():
					return
				case <-time.After(wait):
				}
				select {
				case sem <- struct{}{}:
				default:
					// The outstanding bound is full: shed the arrival instead
					// of silently becoming a closed-loop generator.
					if st.measuring.Load() {
						st.dropped.Add(1)
					}
					continue
				}
				inner.Add(1)
				go func(seq uint64) {
					defer inner.Done()
					defer func() { <-sem }()
					cl := w.client(seq)
					r := rand.New(rand.NewPCG(cfg.Seed, seq))
					picker := newKeyPicker(r, cfg.Keys, cfg.Zipf)
					measured := st.measuring.Load()
					op, d, err := w.issue(runCtx, cl, r, picker)
					if measured && st.measuring.Load() {
						st.record(op, d, err)
					}
				}(seq)
			}
		}()
	}

	// Warmup, then the measurement window, then stop recording before the
	// workers wind down so shutdown noise never lands in the histograms.
	select {
	case <-time.After(cfg.Warmup):
	case <-ctx.Done():
		cancel()
		wg.Wait()
		return nil, ctx.Err()
	}
	st.measuring.Store(true)
	measureStart := time.Now()
	select {
	case <-time.After(cfg.Duration - cfg.Warmup):
	case <-ctx.Done():
	}
	st.measuring.Store(false)
	measured := time.Since(measureStart).Seconds()
	cancel()
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rep := &Report{
		Target: strings.Join(cfg.Targets, ","), Mix: cfg.Mix.String(), Workers: cfg.Workers,
		RateRPS: cfg.Rate, Zipf: cfg.Zipf, Keys: cfg.Keys,
		Deadline: cfg.Deadline.String(), Seed: cfg.Seed,
		WarmupSeconds: cfg.Warmup.Seconds(), MeasuredSeconds: measured,
		Requests: st.requests.Load(), Dropped: st.dropped.Load(),
		Status: map[string]uint64{
			"2xx": st.s2xx.Load(), "429": st.s429.Load(),
			"4xx": st.s4xx.Load(), "5xx": st.s5xx.Load(),
			"deadline": st.deadline.Load(), "error": st.errs.Load(),
		},
		Overall: opReport(st.overall),
		Ops:     make(map[string]OpReport, numOps),
	}
	if measured > 0 {
		rep.ThroughputRPS = float64(rep.Requests) / measured
	}
	for i, h := range st.perOp {
		if cfg.Mix.Weights[i] > 0 {
			rep.Ops[opNames[i]] = opReport(h)
		}
	}
	return rep, nil
}
