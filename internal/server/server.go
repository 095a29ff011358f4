// Package server turns a tracex.Engine into a long-lived HTTP JSON
// service: the tracexd daemon's core. It layers onto the engine exactly
// what a shared deployment needs and the library deliberately does not
// have:
//
//   - admission control — a bounded in-flight limit plus a bounded wait
//     queue; requests beyond both bounds are answered 429 with a jittered
//     Retry-After header instead of piling onto the worker pool;
//   - request coalescing — identical in-flight /v1/predict and /v1/study
//     requests (keyed by tracex.CanonicalRequestKey over the decoded body)
//     share one computation and one marshalled response, on top of the
//     engine's memo singleflight;
//   - deadline and disconnect propagation — each request's context (plus
//     the optional per-request timeout) flows into the engine, so a client
//     hanging up cancels the simulations it asked for;
//   - structured errors — every failure renders a stable wire.ErrorBody
//     whose code is derived from the library's exported sentinel errors;
//   - lifecycle — Start serves in the background, Shutdown stops the
//     listener, flips /readyz to not-ready, drains in-flight requests and
//     flushes a final metrics snapshot.
//
// The request and response bodies are the tracex/wire types — the same
// definitions the typed client and the load generator compile against —
// and hot responses (predict, study) encode through their allocation-free
// AppendJSON fast path.
//
// Observability rides on the engine's obs.Registry under the server.*
// namespace (requests, per-route latency histograms, in-flight and queue
// gauges, coalesced/rejected counters) and is served at /metrics.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"math/rand/v2"

	"tracex"
	"tracex/internal/memo"
	"tracex/internal/obs"
	"tracex/internal/pebil"
	"tracex/wire"
)

// Engine is the slice of tracex.Engine the server drives. It is an
// interface so tests can interpose slow or blocking pipelines; a
// *tracex.Engine satisfies it directly.
type Engine interface {
	Predict(ctx context.Context, req tracex.PredictRequest) (*tracex.Prediction, error)
	Study(ctx context.Context, req tracex.StudyRequest) (*tracex.StudyResult, error)
	Extrapolate(ctx context.Context, inputs []*tracex.Signature, targetCores int, opt tracex.ExtrapOptions) (*tracex.ExtrapResult, error)
	CollectSignature(ctx context.Context, app *tracex.App, cores int, target tracex.MachineConfig, opt tracex.CollectOptions) (*tracex.Signature, error)
	CollectSignatureFrom(ctx context.Context, app *tracex.App, cores int, target tracex.MachineConfig, opt tracex.CollectOptions) (*tracex.Signature, tracex.Provenance, error)
	Store() *tracex.SignatureStore
	Registry() *obs.Registry
}

// Fleet is the sharding layer's server-facing surface, implemented by
// internal/fleet.Fleet. The server defines the interface (rather than
// importing the fleet package) so the dependency arrow keeps pointing
// outward: fleet builds on the client package, whose tests build on this
// server.
type Fleet interface {
	// Self is this node's advertised base URL (its ring identity).
	Self() string
	// Mode is the shard mode (wire.FleetModeFetch or
	// wire.FleetModeRedirect).
	Mode() string
	// Owner resolves a signature key's owning peer URL.
	Owner(key string) string
	// Status snapshots membership, health and replication progress for
	// GET /v1/fleet/status.
	Status() *wire.FleetStatusResponse
}

// Config parameterizes New. The zero value of every field except Engine is
// usable; defaults are documented per field.
type Config struct {
	// Engine executes the pipeline. Required.
	Engine Engine
	// Fleet, when non-nil, enables the distributed routes
	// (GET /v1/fleet/status, POST /v1/fleet/sync), honors delegated
	// collection requests, and — in redirect shard mode — answers
	// signature GETs for remote-owned missing keys with 307 to the owner.
	// Nil (the default) leaves single-node behavior untouched.
	Fleet Fleet
	// MaxInFlight bounds concurrently executing compute requests
	// (/v1/predict, /v1/study, /v1/extrapolate, /v1/signatures). Health,
	// listing and metrics routes are never gated; signature GETs take the
	// separate store-read path. Default: GOMAXPROCS.
	MaxInFlight int
	// MaxQueue bounds requests waiting for an in-flight slot; arrivals
	// beyond MaxInFlight plus MaxQueue are rejected immediately with 429.
	// Default: 4×MaxInFlight.
	MaxQueue int
	// QueueWait bounds how long a queued request waits for an in-flight
	// slot before giving up with 429. Default: 2s.
	QueueWait time.Duration
	// RequestTimeout caps each compute request's wall-clock via its
	// context; 0 disables the cap (the client's disconnect still cancels).
	RequestTimeout time.Duration
	// RetryAfter is the base of the jittered Retry-After advertised on 429
	// responses (header and body): each rejection draws uniformly from
	// [0.5×, 1.5×] of it, rounded up to whole seconds, so a burst of
	// rejected clients does not retry in lockstep. Default: 1s.
	RetryAfter time.Duration
	// DisableCoalescing turns off identical-request coalescing on
	// /v1/predict and /v1/study.
	DisableCoalescing bool
	// DefaultCacheModel is the cache model used when a request omits
	// "model": "exact" (the default) or "analytical". Unknown names fail
	// New.
	DefaultCacheModel string
	// DefaultSampling is the sampling policy used when a request omits
	// "sampling", in tracex.ParseSamplingPolicy grammar (e.g.
	// "fixed:400000" or "adaptive:0.05"). Empty keeps the library default
	// (fixed). Malformed policies fail New.
	DefaultSampling string
	// DefaultIntervals enables prediction intervals on /v1/predict,
	// /v1/study and /v1/extrapolate when a request omits the tri-state
	// "intervals" knob. A request carrying the knob always wins.
	DefaultIntervals bool
	// StoreReadCache sizes the marshalled-body LRU on the signature-GET
	// fast path (entries are keyed by content hash, so a hit is always
	// byte-exact). 0 selects the default of 256; negative disables the
	// cache.
	StoreReadCache int
	// AccessLog, when non-nil, receives one line per completed request
	// (method, path, status, bytes, duration, coalesced).
	AccessLog *log.Logger
	// ErrorLog, when non-nil, receives lifecycle messages and the final
	// metrics snapshot flushed by Shutdown.
	ErrorLog *log.Logger
}

// withDefaults fills unset Config fields.
func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 2 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.StoreReadCache == 0 {
		c.StoreReadCache = 256
	}
	return c
}

// maxBodyBytes caps request bodies (inline signatures with many ranks are
// the large case).
const maxBodyBytes = 64 << 20

// flightOut is one computed response, shared verbatim between coalesced
// requests.
type flightOut struct {
	status int
	body   []byte
}

// Server is the HTTP service. Construct with New; it is ready to serve
// (Handler, Serve, Start) immediately and stops accepting work after
// Shutdown.
type Server struct {
	cfg      Config
	eng      Engine
	reg      *obs.Registry
	hs       *http.Server
	mux      *http.ServeMux
	model    tracex.CacheModel     // resolved DefaultCacheModel
	sampling tracex.SamplingPolicy // resolved DefaultSampling (zero: library default)
	ready    atomic.Bool

	// Admission state: one token per executing compute request in
	// inflight, one per waiting request in queue. A queued request blocks
	// sending on inflight, so the channel's own wait queue hands each freed
	// slot to the longest waiter.
	inflight  chan struct{} // in-flight slots; cap MaxInFlight
	queue     chan struct{} // wait-queue slots; cap MaxQueue
	releaseFn func()        // bound once so admit's happy path does not allocate

	// jitter draws the Retry-After factor in [0, 1); tests pin it.
	jitter func() float64

	flights *memo.Cache[string, *flightOut]

	// Store-read fast path: marshalled GET bodies keyed by content
	// identity, misses bounded by their own semaphore instead of compute
	// admission.
	bodyCache  *memo.Cache[string, []byte]
	storeReads chan struct{}

	requests   *obs.Counter
	coalesced  *obs.Counter
	rejected   *obs.Counter
	readHits   *obs.Counter
	readMisses *obs.Counter
}

// New returns a Server over cfg.Engine. The registry gains the server.*
// metrics; a nil registry (engine with observability disabled) is fine —
// instrumentation degrades to no-ops.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("server: config has no engine")
	}
	defaultModel, err := pebil.ParseCacheModel(cfg.DefaultCacheModel)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	defaultSampling, err := tracex.ParseSamplingPolicy(cfg.DefaultSampling)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		eng:      cfg.Engine,
		reg:      cfg.Engine.Registry(),
		model:    defaultModel,
		sampling: defaultSampling,
		mux:      http.NewServeMux(),
		inflight: make(chan struct{}, cfg.MaxInFlight),
		queue:    make(chan struct{}, cfg.MaxQueue),
		jitter:   rand.Float64,
		// Capacity 0: pure singleflight — responses are deduplicated while
		// in flight and never retained (the engine's caches already hold
		// the expensive artifacts; retaining marshalled bodies would buy
		// no extra hit rate for the memory).
		flights:    memo.New[string, *flightOut](0),
		storeReads: make(chan struct{}, maxInt(2, runtime.GOMAXPROCS(0))),
	}
	s.releaseFn = func() { <-s.inflight }
	if cfg.StoreReadCache > 0 {
		s.bodyCache = memo.New[string, []byte](cfg.StoreReadCache)
	}
	s.requests = s.reg.Counter("server.requests")
	s.coalesced = s.reg.Counter("server.coalesced")
	s.rejected = s.reg.Counter("server.rejected")
	s.readHits = s.reg.Counter("server.store.read_hits")
	s.readMisses = s.reg.Counter("server.store.read_misses")
	s.reg.GaugeFunc("server.in_flight", func() float64 { return float64(len(s.inflight)) })
	s.reg.GaugeFunc("server.queue.depth", func() float64 { return float64(len(s.queue)) })
	s.reg.GaugeFunc("server.admit.limit", func() float64 { return float64(cap(s.inflight)) })

	s.routes()
	s.hs = &http.Server{Handler: s.instrument(s.mux), ErrorLog: cfg.ErrorLog}
	s.ready.Store(true)
	return s, nil
}

// maxInt returns the larger of a and b.
func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// routes registers every endpoint on the server's mux. Paths come from the
// wire package so the server and its clients cannot drift.
func (s *Server) routes() {
	s.mux.Handle("POST "+wire.PathPredict, handleJSON(s, "predict", true, s.predict))
	s.mux.Handle("POST "+wire.PathStudy, handleJSON(s, "study", true, s.study))
	s.mux.Handle("POST "+wire.PathExtrapolate, handleJSON(s, "extrapolate", false, s.extrapolate))
	s.mux.Handle("POST "+wire.PathSignatures, handleJSON(s, "signatures", false, s.collect))
	s.mux.HandleFunc("GET "+wire.PathSignaturePrefix+"{key}", s.storeGet)
	s.mux.HandleFunc("PUT "+wire.PathSignaturePrefix+"{key}", s.storePut)
	s.mux.HandleFunc("GET "+wire.PathFleetStatus, s.fleetStatus)
	s.mux.HandleFunc("POST "+wire.PathFleetSync, s.fleetSync)
	s.mux.HandleFunc("GET "+wire.PathApps, func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, &wire.AppsResponse{Apps: tracex.Apps()})
	})
	s.mux.HandleFunc("GET "+wire.PathMachines, func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, &wire.MachinesResponse{Machines: tracex.Machines()})
	})
	s.mux.HandleFunc("GET "+wire.PathHealthz, func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, &wire.HealthResponse{Status: "ok"})
	})
	s.mux.HandleFunc("GET "+wire.PathReadyz, func(w http.ResponseWriter, _ *http.Request) {
		if s.ready.Load() {
			writeJSON(w, http.StatusOK, &wire.HealthResponse{Status: "ready"})
			return
		}
		writeJSON(w, http.StatusServiceUnavailable, &wire.HealthResponse{Status: "draining"})
	})
	// The metrics snapshot answers both its canonical path and the root
	// (the pre-daemon `tracex -metrics-addr` endpoint served it at every
	// path; keeping "/" preserves scrapers pointed at the old URL).
	s.mux.Handle("GET "+wire.PathMetrics, s.reg.Handler())
	s.mux.Handle("GET /{$}", s.reg.Handler())
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.writeError(w, notFoundf("no route %s %s", r.Method, r.URL.Path))
	})
}

// Handler returns the server's full handler (instrumentation included),
// for tests and embedding.
func (s *Server) Handler() http.Handler { return s.hs.Handler }

// Start listens on addr and serves in the background, returning the bound
// address (useful with port 0). Serve errors other than a clean shutdown
// go to ErrorLog.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() {
		if err := s.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.logf("serve error: %v", err)
		}
	}()
	return ln.Addr(), nil
}

// Serve accepts connections on ln until Shutdown (which returns nil here)
// or a listener error.
func (s *Server) Serve(ln net.Listener) error {
	if err := s.hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// Shutdown gracefully stops the server: the listener closes, /readyz
// flips to not-ready, in-flight requests drain (bounded by ctx), and the
// final metrics snapshot is flushed to ErrorLog. If ctx expires before the
// drain completes, remaining connections are force-closed and ctx's error
// returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	err := s.hs.Shutdown(ctx)
	if err != nil {
		s.hs.Close()
	}
	if s.cfg.ErrorLog != nil && s.reg != nil {
		if b, merr := json.Marshal(s.reg.Snapshot()); merr == nil {
			s.cfg.ErrorLog.Printf("final metrics snapshot: %s", b)
		}
	}
	return err
}

// logf writes a lifecycle message to ErrorLog, if configured.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.ErrorLog != nil {
		s.cfg.ErrorLog.Printf(format, args...)
	}
}

// routeName maps a request path to its metric label.
func routeName(path string) string {
	switch path {
	case wire.PathHealthz:
		return "healthz"
	case wire.PathReadyz:
		return "readyz"
	case wire.PathMetrics:
		return "metrics"
	case "/":
		return "root"
	}
	if rest, ok := strings.CutPrefix(path, "/v1/"); ok {
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		switch rest {
		case "predict", "study", "extrapolate", "signatures", "apps", "machines", "fleet":
			return rest
		}
	}
	return "other"
}

// statusWriter captures the response status and size for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// instrument wraps the mux with request counting, per-route latency
// histograms and access logging.
func (s *Server) instrument(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeName(r.URL.Path)
		s.requests.Inc()
		s.reg.Counter("server.requests." + route).Inc()
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(sw, r)
		dur := time.Since(start)
		s.reg.Histogram("server.latency." + route).Observe(dur.Seconds())
		if s.cfg.AccessLog != nil {
			s.cfg.AccessLog.Printf("%s %s %d %dB %.3fms coalesced=%t",
				r.Method, r.URL.Path, sw.status, sw.bytes,
				float64(dur.Microseconds())/1000,
				sw.Header().Get("Tracex-Coalesced") == "true")
		}
	})
}

// admit acquires an in-flight slot, queueing within the configured bounds.
// The returned release must be called when the work completes. Arrivals
// that find every in-flight and queue slot taken, and queued requests that
// outwait QueueWait, fail with errOverloaded (→ 429); a ctx that ends while
// queued fails with its error without ever holding an in-flight slot.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	select {
	case s.inflight <- struct{}{}:
		return s.releaseFn, nil
	default:
	}
	select {
	case s.queue <- struct{}{}:
	default:
		return nil, fmt.Errorf("server: %w: %d in-flight and %d queued requests",
			errOverloaded, cap(s.inflight), cap(s.queue))
	}
	defer func() { <-s.queue }()
	timer := time.NewTimer(s.cfg.QueueWait)
	defer timer.Stop()
	select {
	case s.inflight <- struct{}{}:
		return s.releaseFn, nil
	case <-timer.C:
		return nil, fmt.Errorf("server: %w: no free slot within %s", errOverloaded, s.cfg.QueueWait)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// handleJSON adapts one typed compute handler into an http.Handler with
// the server's shared requirements: bounded body decoding with unknown
// -field rejection, per-request deadline, admission control, optional
// coalescing, and structured error rendering.
//
// When coalescing, the canonical key is computed from the decoded request
// value (not the raw bytes), so formatting differences between identical
// requests still coalesce. The first request leads: admission and the
// computation run on its goroutine and its context. Followers share the
// leader's marshalled response (marked by the Tracex-Coalesced header) —
// including an error response; a follower whose own context ends while
// waiting gets its context error instead.
func handleJSON[Req any](s *Server, route string, coalesce bool, impl func(ctx context.Context, req *Req) (any, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			s.writeError(w, badRequestf("reading body: %v", err))
			return
		}
		req := new(Req)
		if err := wire.DecodeStrict(bytes.NewReader(body), req); err != nil {
			s.writeError(w, badRequestf("decoding %s request: %v", route, err))
			return
		}
		run := func() (*flightOut, error) {
			release, err := s.admit(ctx)
			if err != nil {
				if errors.Is(err, errOverloaded) {
					s.rejected.Inc()
				}
				return nil, err
			}
			defer release()
			v, err := impl(ctx, req)
			if err != nil {
				return nil, err
			}
			b, err := encodeResponse(route, v)
			if err != nil {
				return nil, err
			}
			return &flightOut{status: http.StatusOK, body: b}, nil
		}
		var out *flightOut
		var joined bool
		if coalesce && !s.cfg.DisableCoalescing {
			key, kerr := tracex.CanonicalRequestKey(route, req)
			if kerr != nil {
				s.writeError(w, kerr)
				return
			}
			out, joined, err = s.flights.Do(ctx, key, run)
			if joined {
				s.coalesced.Inc()
				w.Header().Set("Tracex-Coalesced", "true")
			}
		} else {
			out, err = run()
		}
		if err != nil {
			s.writeError(w, err)
			return
		}
		writeRaw(w, out.status, out.body)
	})
}

// encodeResponse marshals a handler's response, preferring the wire
// package's allocation-free append encoder when the type has one (predict
// and study — the hot paths).
func encodeResponse(route string, v any) ([]byte, error) {
	if am, ok := v.(wire.AppendMarshaler); ok {
		return am.AppendJSON(make([]byte, 0, 512)), nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("server: encoding %s response: %w", route, err)
	}
	return b, nil
}

// writeError renders err as the structured wire.ErrorBody, attaching a
// jittered Retry-After on 429.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status, code := classify(err)
	body := wire.ErrorBody{Error: wire.ErrorDetail{Code: code, Message: err.Error(), Status: status}}
	if status == http.StatusTooManyRequests {
		secs := s.retryAfterSeconds()
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		body.Error.RetryAfterSeconds = secs
	}
	writeJSON(w, status, body)
}

// retryAfterSeconds draws one jittered Retry-After value: uniform in
// [0.5×, 1.5×] of the configured base, rounded up to whole seconds,
// never below 1.
func (s *Server) retryAfterSeconds() int {
	secs := int(math.Ceil(s.cfg.RetryAfter.Seconds() * (0.5 + s.jitter())))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// writeJSON marshals v and writes it with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		// Wire types are marshal-safe by construction; this is a
		// programming error, not a request error.
		http.Error(w, `{"error":{"code":"internal","message":"encoding response","status":500}}`, http.StatusInternalServerError)
		return
	}
	writeRaw(w, status, b)
}

// writeRaw writes pre-marshalled JSON. Write errors are the client's
// disconnect; there is nothing left to do with them.
func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_, _ = w.Write(body)
	_, _ = w.Write([]byte{'\n'})
}

// collectOpt builds the collection options for a wire request: an omitted
// model or sampling policy selects the server's configured default, and an
// unknown name, malformed policy or invalid combination is a 400 (the
// fields are client-supplied).
func (s *Server) collectOpt(model, sampling string) (tracex.CollectOptions, error) {
	m := s.model
	if model != "" {
		var err error
		if m, err = pebil.ParseCacheModel(model); err != nil {
			return tracex.CollectOptions{}, badRequestf("%v", err)
		}
	}
	pol := s.sampling
	if sampling != "" {
		var err error
		if pol, err = tracex.ParseSamplingPolicy(sampling); err != nil {
			return tracex.CollectOptions{}, badRequestf("%v", err)
		}
	}
	opt := tracex.CollectOptions{Model: m, Sampling: pol}
	if err := opt.Validate(); err != nil {
		// An adaptive policy with an unsupported model is a client error.
		return tracex.CollectOptions{}, badRequestf("%v", err)
	}
	return opt, nil
}

// extrapOpt builds the extrapolation options for a wire request.
func extrapOpt(extended bool) tracex.ExtrapOptions {
	if extended {
		return tracex.ExtrapOptions{Forms: tracex.ExtendedForms()}
	}
	return tracex.ExtrapOptions{}
}

// intervalsFor resolves a request's tri-state intervals knob against the
// server default: an absent knob (nil) defers to Config.DefaultIntervals.
func (s *Server) intervalsFor(knob *bool) bool {
	if knob != nil {
		return *knob
	}
	return s.cfg.DefaultIntervals
}

// lookupApp resolves an application name to 404-classified errors.
func lookupApp(name string) (*tracex.App, error) {
	if name == "" {
		return nil, badRequestf("request names no application")
	}
	app, err := tracex.LoadApp(name)
	if err != nil {
		return nil, notFoundf("%v", err)
	}
	return app, nil
}

// lookupMachine resolves a machine name to 404-classified errors.
func lookupMachine(name string) (tracex.MachineConfig, error) {
	if name == "" {
		return tracex.MachineConfig{}, badRequestf("request names no machine")
	}
	cfg, err := tracex.LoadMachine(name)
	if err != nil {
		return tracex.MachineConfig{}, notFoundf("%v", err)
	}
	return cfg, nil
}

// predict implements POST /v1/predict.
func (s *Server) predict(ctx context.Context, req *wire.PredictRequest) (any, error) {
	sig := req.Signature
	// from records which tier produced the signature ("inline" when the
	// client sent it; otherwise the engine's provenance — memory, disk,
	// collected or analytical).
	from := "inline"
	model := ""
	sampling := ""
	if sig != nil {
		if err := sig.Validate(); err != nil {
			return nil, err
		}
	} else {
		if req.Cores <= 0 {
			return nil, badRequestf("predict requires cores > 0 (or an inline signature)")
		}
		app, err := lookupApp(req.App)
		if err != nil {
			return nil, err
		}
		cfg, err := lookupMachine(req.Machine)
		if err != nil {
			return nil, err
		}
		opt, err := s.collectOpt(req.Model, req.Sampling)
		if err != nil {
			return nil, err
		}
		model = string(opt.Model)
		sampling = opt.Normalized().Sampling.String()
		var prov tracex.Provenance
		sig, prov, err = s.eng.CollectSignatureFrom(ctx, app, req.Cores, cfg, opt)
		if err != nil {
			return nil, err
		}
		from = string(prov)
	}
	appName := req.App
	if appName == "" {
		appName = sig.App
	}
	app, err := lookupApp(appName)
	if err != nil {
		return nil, err
	}
	pred, err := s.eng.Predict(ctx, tracex.PredictRequest{
		Signature: sig,
		App:       app,
		Intervals: s.intervalsFor(req.Intervals),
	})
	if err != nil {
		return nil, err
	}
	resp := wire.PredictionResponse(pred)
	resp.From = from
	resp.Model = model
	resp.Sampling = sampling
	return resp, nil
}

// study implements POST /v1/study.
func (s *Server) study(ctx context.Context, req *wire.StudyRequest) (any, error) {
	app, err := lookupApp(req.App)
	if err != nil {
		return nil, err
	}
	cfg, err := lookupMachine(req.Machine)
	if err != nil {
		return nil, err
	}
	opt, err := s.collectOpt(req.Model, req.Sampling)
	if err != nil {
		return nil, err
	}
	res, err := s.eng.Study(ctx, tracex.StudyRequest{
		App:          app,
		Machine:      cfg,
		InputCounts:  req.InputCounts,
		TargetCores:  req.TargetCores,
		TargetCounts: req.TargetCounts,
		Collect:      opt,
		Extrap:       extrapOpt(req.ExtendedForms),
		WithTruth:    req.WithTruth,
		Intervals:    s.intervalsFor(req.Intervals),
	})
	if err != nil {
		return nil, err
	}
	return &wire.StudyResponse{
		App:         req.App,
		Machine:     req.Machine,
		InputCounts: req.InputCounts,
		Rows:        res.Rows(),
	}, nil
}

// extrapolate implements POST /v1/extrapolate.
func (s *Server) extrapolate(ctx context.Context, req *wire.ExtrapolateRequest) (any, error) {
	if len(req.Signatures) < 2 {
		return nil, badRequestf("extrapolate requires at least 2 input signatures, got %d", len(req.Signatures))
	}
	if req.TargetCores <= 0 {
		return nil, badRequestf("extrapolate requires target_cores > 0")
	}
	exOpt := extrapOpt(req.ExtendedForms)
	exOpt.Intervals = s.intervalsFor(req.Intervals)
	res, err := s.eng.Extrapolate(ctx, req.Signatures, req.TargetCores, exOpt)
	if err != nil {
		return nil, err
	}
	return &wire.ExtrapolateResponse{
		Signature:     res.Signature,
		Fits:          len(res.Fits),
		SkippedBlocks: res.SkippedBlocks,
	}, nil
}

// collect implements POST /v1/signatures.
func (s *Server) collect(ctx context.Context, req *wire.SignatureRequest) (any, error) {
	if req.Cores <= 0 {
		return nil, badRequestf("signatures requires cores > 0")
	}
	app, err := lookupApp(req.App)
	if err != nil {
		return nil, err
	}
	cfg, err := lookupMachine(req.Machine)
	if err != nil {
		return nil, err
	}
	opt, err := s.collectOpt(req.Model, req.Sampling)
	if err != nil {
		return nil, err
	}
	if req.Delegated {
		// A fleet peer delegated this collection because the ring names
		// this node the key's owner. Collect strictly locally — never via
		// our own peer tier — so momentarily disagreeing rings cannot
		// delegate in a cycle.
		ctx = tracex.ContextWithoutRemoteTier(ctx)
	}
	sig, err := s.eng.CollectSignature(ctx, app, req.Cores, cfg, opt)
	if err != nil {
		return nil, err
	}
	dom := sig.DominantTrace()
	return &wire.SignatureResponse{
		Ranks:        len(sig.Traces),
		Blocks:       len(dom.Blocks),
		DominantRank: dom.Rank,
		Signature:    sig,
	}, nil
}
