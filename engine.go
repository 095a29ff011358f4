package tracex

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"tracex/internal/cache"
	"tracex/internal/extrap"
	"tracex/internal/memo"
	"tracex/internal/multimaps"
	"tracex/internal/obs"
	"tracex/internal/pebil"
	"tracex/internal/psins"
	"tracex/internal/store"
)

// Engine is a long-lived, concurrency-safe orchestrator for the
// trace-extrapolation pipeline. It memoizes the two expensive, deterministic
// artifacts — machine profiles (keyed by a MachineConfig fingerprint) and
// application signatures (keyed by app, core count, machine and collection
// options) — deduplicates identical in-flight work so concurrent callers
// share one simulation, and fans independent collections and predictions out
// across a bounded worker pool. All methods honour context cancellation:
// cancelling stops the underlying simulations promptly and returns
// ctx.Err().
//
// Every engine carries an observability registry (internal/obs): pipeline
// stages record spans and the simulators publish counters into it, Stats
// returns the digest, and Registry exposes the raw registry for the HTTP
// metrics endpoint. WithRegistry(nil) disables collection.
//
// Cached profiles and signatures are shared between callers and must be
// treated as read-only.
//
// An Engine holds long-lived resources — the collection worker arena and,
// with WithStore, the on-disk store handle. Call Close when finished with
// it.
type Engine struct {
	parallelism int
	confErr     error // first configuration error; poisons every method
	sem         chan struct{}
	collector   *pebil.Collector
	profiles    *memo.Cache[string, *Profile]
	sigs        *memo.Cache[sigKey, *Signature]
	reuse       *memo.Cache[reuseKey, *ReuseSignature]
	disk        *store.Store
	remote      RemoteTier
	reg         *obs.Registry
	predictions *obs.Counter
	studies     *obs.Counter
	putErrors   *obs.Counter
	peerFetches *obs.Counter
	peerHits    *obs.Counter
	closeOnce   sync.Once
	closed      atomic.Bool
	closeErr    error
}

// sigKey identifies one signature collection. The collect options are
// normalized (defaults filled) so equivalent requests share an entry.
type sigKey struct {
	app     string
	cores   int
	machine string // machine.Config.Fingerprint()
	opt     CollectOptions
}

// reuseKey identifies one reuse-distance collection. No machine component:
// the profile is geometry-free, and the cache model is cleared from the
// options because the same profile serves every model.
type reuseKey struct {
	app   string
	cores int
	opt   CollectOptions
}

// reuseOpt normalizes options to the reuse profile's identity.
func reuseOpt(opt CollectOptions) CollectOptions {
	n := opt.Normalized()
	n.Model = ""
	return n
}

// Provenance reports which tier of the engine's signature cache satisfied
// a collection request: the in-memory memo, the persistent on-disk store,
// or a fresh simulation. The HTTP service surfaces it as the `from` field
// on predict responses.
type Provenance string

const (
	// FromMemory: served by the in-memory memo cache (or by joining an
	// identical in-flight collection).
	FromMemory Provenance = "memory"
	// FromDisk: loaded from the persistent signature store — a warm
	// start, no simulation ran.
	FromDisk Provenance = "disk"
	// FromCollected: simulated fresh (and written through to both cache
	// tiers).
	FromCollected Provenance = "collected"
	// FromAnalytical: derived analytically from a reuse-distance
	// signature for this geometry — the underlying geometry-free profile
	// may have come from any tier, but no per-geometry simulation ran.
	FromAnalytical Provenance = "analytical"
	// FromPeer: fetched from a remote tier (WithRemoteTier) — another
	// tracexd that already holds the signature — and written through to
	// the local disk store; no local simulation ran.
	FromPeer Provenance = "peer"
)

// RemoteTier is a remote source of already-collected signatures the engine
// consults between its disk tier and a fresh collection (see
// WithRemoteTier). An implementation (internal/fleet) returns the signature
// for the exact (app, cores, machine, options) identity, (nil, nil) when no
// remote holds it, or an error for transient trouble; the engine treats
// both of the latter the same — it falls back to collecting locally, so an
// unreachable remote never fails a request on its own.
type RemoteTier interface {
	FetchSignature(ctx context.Context, app string, cores int, machine string, opt CollectOptions) (*Signature, error)
}

// SignatureStore is the persistent, content-addressed signature store an
// Engine warm-starts from (see WithStore and internal/store).
type SignatureStore = store.Store

// SignatureKey is the logical identity of a stored signature: application,
// machine (name plus configuration fingerprint), core count and normalized
// collection options, flattened to the store's string form.
type SignatureKey = store.Key

// StoreKey returns the persistent-store key the Engine files a collection
// under. Exported so tools importing or exporting signatures (the tracex
// CLI) index them exactly as a warm-starting Engine will look them up.
func StoreKey(app string, cores int, m MachineConfig, opt CollectOptions) SignatureKey {
	return store.Key{
		App:       app,
		Machine:   m.Name,
		MachineFP: shortHash(m.Fingerprint()),
		Cores:     cores,
		Opt:       shortHash(optIdentity(opt.Normalized())),
	}
}

// ReuseStoreKey returns the persistent-store key for a machine-independent
// reuse-distance signature: no machine name or fingerprint — one stored
// profile serves every cache geometry — and the model cleared from the
// option identity, since the profile is the same whichever model consumes
// it.
func ReuseStoreKey(app string, cores int, opt CollectOptions) SignatureKey {
	return store.Key{
		App:   app,
		Cores: cores,
		Opt:   shortHash(optIdentity(reuseOpt(opt))),
		Kind:  store.KindReuse,
	}
}

// optIdentity renders a normalized configuration in the stable identity
// form hashed into store keys. The leading brace group is a frozen format:
// the `%+v` rendering of the collector configuration before the sampling
// policy and the cache model existed, so every store written since keeps
// resolving under its original keys. A fixed policy fills its sample length
// and warm cap into it; an adaptive policy renders 0/0 there and extends
// the identity with its own string, as a non-exact model does with its
// name.
func optIdentity(n CollectOptions) string {
	var sample, warm int
	if !n.Sampling.IsAdaptive() {
		sample, warm = n.Sampling.SampleRefs, n.Sampling.MaxWarmRefs
	}
	s := fmt.Sprintf("{SampleRefs:%d MaxWarmRefs:%d Workers:0 BatchSize:0 SharedHierarchy:%t}",
		sample, warm, n.SharedHierarchy)
	if n.Model != "" && n.Model != ModelExact {
		s += " Model:" + string(n.Model)
	}
	if n.Sampling.IsAdaptive() {
		s += " Sampling:" + n.Sampling.String()
	}
	return s
}

// shortHash condenses a long identity string (machine fingerprint, option
// set) into a 16-hex-digit discriminator for manifest keys.
func shortHash(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

// ErrBadParallelism reports a WithParallelism value below 1. The worker
// pool cannot be sized by guesswork: a zero or negative bound used to be
// silently replaced, which hid misconfigured callers; it is now rejected up
// front (errors.Is-matchable against this sentinel).
var ErrBadParallelism = errors.New("parallelism must be at least 1")

// ErrEngineClosed reports a pipeline call on an Engine whose Close has been
// called. Errors returned after Close wrap this sentinel (errors.Is).
var ErrEngineClosed = errors.New("tracex: engine is closed")

// CanonicalRequestKey returns a stable, collision-resistant identity for a
// request value: a SHA-256 over kind and the value's canonical JSON
// encoding, rendered as "kind:hex". Two requests share a key exactly when
// they marshal to the same bytes — encoding/json emits struct fields in
// declaration order and map keys sorted, so the encoding (and therefore the
// key) is deterministic. Callers deduplicating identical in-flight work
// (the HTTP server's request coalescing, batch schedulers) should pass a
// kind per operation so a predict and a study over the same payload never
// collide.
func CanonicalRequestKey(kind string, req any) (string, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return "", fmt.Errorf("tracex: canonical key for %s request: %w", kind, err)
	}
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write(b)
	return kind + ":" + hex.EncodeToString(h.Sum(nil)), nil
}

// EngineStats is a snapshot of an Engine's cumulative activity — cache
// effectiveness, pool pressure and per-stage wall-clock — backed by the
// engine's observability registry. Chiefly for tests, monitoring and
// cache-sizing decisions; `tracex stats` pretty-prints it.
type EngineStats struct {
	// ProfileBuilds counts MultiMAPS sweeps actually executed;
	// ProfileHits counts profile requests served without a sweep;
	// ProfileEvictions counts cached profiles discarded by LRU pressure.
	ProfileBuilds, ProfileHits, ProfileEvictions uint64
	// Collections counts collection requests that missed the in-memory
	// signature cache (disk and peer warm-starts count here too; only
	// StageSummaries' pebil.* rows prove a simulation actually ran);
	// CollectionHits counts collection requests served from memory;
	// SignatureEvictions counts cached signatures discarded by LRU pressure.
	Collections, CollectionHits, SignatureEvictions uint64
	// ReuseCollections counts reuse-distance profiles actually recorded;
	// ReuseHits counts reuse-profile requests served from the in-memory
	// cache without recording (disk warm-starts count as collections here
	// and as StoreHits below).
	ReuseCollections, ReuseHits uint64
	// Predictions counts completed convolution+replay predictions; Studies
	// counts completed extrapolation studies.
	Predictions, Studies uint64
	// StoreHits and StoreMisses count persistent-store lookups (zero
	// without WithStore); StorePuts counts signatures written through to
	// disk; StoreCorruptions counts records that failed checksum or
	// structural validation and were quarantined.
	StoreHits, StoreMisses, StorePuts, StoreCorruptions uint64
	// PeerFetches counts remote-tier lookups attempted (zero without
	// WithRemoteTier); PeerHits counts the ones that returned a signature.
	PeerFetches, PeerHits uint64
	// PoolCapacity is the worker-pool bound; PoolInFlight is how many pool
	// slots were held when the snapshot was taken.
	PoolCapacity, PoolInFlight int
	// Stages summarizes every recorded pipeline span (count, total and max
	// wall-clock seconds), sorted by stage name. Nil when observability is
	// disabled.
	Stages []StageSummary
}

// StageSummary aggregates the recorded occurrences of one pipeline stage.
type StageSummary = obs.SpanSummary

// Stats returns a snapshot of the engine's cumulative activity.
func (e *Engine) Stats() EngineStats {
	st := EngineStats{
		Predictions:  e.predictions.Value(),
		Studies:      e.studies.Value(),
		PoolCapacity: e.parallelism,
		PoolInFlight: len(e.sem),
		Stages:       e.reg.SpanSummaries(),
	}
	st.ProfileHits, st.ProfileBuilds = e.profiles.Stats()
	st.ProfileEvictions = e.profiles.Evictions()
	st.CollectionHits, st.Collections = e.sigs.Stats()
	st.SignatureEvictions = e.sigs.Evictions()
	st.ReuseHits, st.ReuseCollections = e.reuse.Stats()
	st.StoreHits = e.reg.Counter("store.hits").Value()
	st.StoreMisses = e.reg.Counter("store.misses").Value()
	st.StorePuts = e.reg.Counter("store.puts").Value()
	st.StoreCorruptions = e.reg.Counter("store.corruptions").Value()
	st.PeerFetches = e.peerFetches.Value()
	st.PeerHits = e.peerHits.Value()
	return st
}

// Registry returns the engine's observability registry (nil when disabled
// via WithRegistry(nil)). Serve Registry().Handler() to expose the
// engine's metrics over HTTP.
func (e *Engine) Registry() *obs.Registry { return e.reg }

// Err returns the engine's configuration error, if any. An engine built
// with invalid options (for example WithParallelism(0)) is inert: Err
// reports the problem and every pipeline method returns it.
func (e *Engine) Err() error { return e.confErr }

// usable gates every pipeline method: a misconfigured engine returns its
// configuration error, a closed one ErrEngineClosed.
func (e *Engine) usable() error {
	if e.confErr != nil {
		return e.confErr
	}
	if e.closed.Load() {
		return ErrEngineClosed
	}
	return nil
}

// Close releases the engine's long-lived resources: the collection worker
// arena is drained (its goroutines exit) and the persistent signature store,
// if any, is closed. Close is idempotent — further calls return the first
// call's result — and after it every pipeline method fails with
// ErrEngineClosed. Callers should let in-flight work finish (or cancel its
// contexts) before closing; collections racing a Close fail with
// pebil.ErrArenaClosed rather than corrupting state.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		e.closed.Store(true)
		e.collector.Close()
		if e.disk != nil {
			e.closeErr = e.disk.Close()
		}
	})
	return e.closeErr
}

// engineConfig accumulates functional options.
type engineConfig struct {
	parallelism int
	cacheSize   int
	storeDir    string
	remote      RemoteTier
	registry    *obs.Registry
	regSet      bool
	err         error
}

// EngineOption configures NewEngine.
type EngineOption func(*engineConfig)

// WithParallelism bounds the number of pipeline tasks (collections,
// predictions, study stages) the engine runs concurrently. n must be at
// least 1; zero and negative values are rejected — the engine is
// constructed but inert, with every method (and Err) returning an error
// wrapping ErrBadParallelism. Omit the option for the default of one worker
// per available CPU. The same bound sizes the engine's collection worker
// arena, and every collection runs on up to all of its workers.
func WithParallelism(n int) EngineOption {
	return func(c *engineConfig) {
		if n < 1 {
			if c.err == nil {
				c.err = fmt.Errorf("tracex: %w: WithParallelism(%d)", ErrBadParallelism, n)
			}
			return
		}
		c.parallelism = n
	}
}

// WithCacheSize sets how many machine profiles and application signatures
// the engine retains (each in its own LRU cache). Zero disables memoization
// — every request simulates — while still deduplicating identical in-flight
// work; negative means unbounded. The default is 64.
func WithCacheSize(n int) EngineOption {
	return func(c *engineConfig) { c.cacheSize = n }
}

// WithStore attaches a persistent signature store rooted at dir (created
// with 0700 permissions if missing), making the engine's signature cache
// two-tiered: a collection request checks memory, then disk, then
// simulates, writing fresh results through both tiers. A restarted process
// pointed at the same directory warm-starts — its first repeated request
// is a disk hit instead of a re-collection. An unopenable directory does
// not panic: the engine is returned inert with Err reporting the problem.
// Machine profiles are not persisted; a MultiMAPS sweep is orders of
// magnitude cheaper than a signature collection.
func WithStore(dir string) EngineOption {
	return func(c *engineConfig) { c.storeDir = dir }
}

// WithRemoteTier inserts a remote signature source between the engine's
// disk tier and a fresh collection: a request that misses memory and disk
// asks the remote tier before simulating, and a successful fetch is served
// with Provenance "peer" and written through to the local disk store. The
// tier is strictly best-effort — any fetch error falls back to a local
// collection — and only applies to the exact-model path (analytical
// signatures are derived locally from the reuse profile in microseconds).
// Delegated requests disable the tier via ContextWithoutRemoteTier so two
// nodes with momentarily disagreeing ring views cannot delegate in a cycle.
func WithRemoteTier(rt RemoteTier) EngineOption {
	return func(c *engineConfig) { c.remote = rt }
}

// noRemoteTierKey marks a context whose work must not consult the remote
// tier.
type noRemoteTierKey struct{}

// ContextWithoutRemoteTier returns a context under which the engine
// collects strictly locally: the remote tier (WithRemoteTier) is skipped.
// The HTTP service applies it to delegated collection requests, breaking
// delegation cycles when fleet members briefly disagree on key ownership.
func ContextWithoutRemoteTier(ctx context.Context) context.Context {
	return context.WithValue(ctx, noRemoteTierKey{}, true)
}

// remoteTierDisabled reports whether ctx forbids remote-tier fetches.
func remoteTierDisabled(ctx context.Context) bool {
	on, _ := ctx.Value(noRemoteTierKey{}).(bool)
	return on
}

// WithRegistry sets the observability registry the engine and the pipeline
// stages beneath it record into. The default is a fresh registry per
// engine; pass a shared registry to aggregate several engines, or nil to
// disable metric collection entirely (instrumentation then costs one
// predicted branch per update).
func WithRegistry(r *obs.Registry) EngineOption {
	return func(c *engineConfig) { c.registry = r; c.regSet = true }
}

// NewEngine returns an Engine with the given options applied. Invalid
// options do not panic: the engine is returned inert with Err (and every
// method) reporting the first configuration error.
func NewEngine(opts ...EngineOption) *Engine {
	cfg := engineConfig{cacheSize: 64}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.parallelism <= 0 {
		cfg.parallelism = runtime.GOMAXPROCS(0)
	}
	if !cfg.regSet {
		cfg.registry = obs.New()
	}
	e := &Engine{
		parallelism: cfg.parallelism,
		confErr:     cfg.err,
		sem:         make(chan struct{}, cfg.parallelism),
		profiles:    memo.New[string, *Profile](cfg.cacheSize),
		sigs:        memo.New[sigKey, *Signature](cfg.cacheSize),
		reuse:       memo.New[reuseKey, *ReuseSignature](cfg.cacheSize),
		remote:      cfg.remote,
		reg:         cfg.registry,
		predictions: cfg.registry.Counter("engine.predictions"),
		studies:     cfg.registry.Counter("engine.studies"),
		putErrors:   cfg.registry.Counter("store.put_errors"),
		peerFetches: cfg.registry.Counter("engine.peer.fetches"),
		peerHits:    cfg.registry.Counter("engine.peer.hits"),
	}
	// The collection arena is shared by every collection the engine runs;
	// sizing it by the pool bound keeps total simulation concurrency at
	// parallelism even when several collections are in flight.
	e.collector = pebil.NewCollector(cfg.parallelism)
	if cfg.storeDir != "" {
		st, err := store.Open(cfg.storeDir, cfg.registry)
		if err != nil && e.confErr == nil {
			e.confErr = fmt.Errorf("tracex: %w", err)
		}
		e.disk = st
	}
	// Pool and cache health as snapshot-time gauges: cheap to read, always
	// current, and visible on the HTTP endpoint without Engine.Stats.
	e.reg.GaugeFunc("engine.pool.capacity", func() float64 { return float64(e.parallelism) })
	e.reg.GaugeFunc("engine.pool.in_flight", func() float64 { return float64(len(e.sem)) })
	e.reg.GaugeFunc("engine.cache.profile.hits", func() float64 { h, _ := e.profiles.Stats(); return float64(h) })
	e.reg.GaugeFunc("engine.cache.profile.misses", func() float64 { _, m := e.profiles.Stats(); return float64(m) })
	e.reg.GaugeFunc("engine.cache.profile.evictions", func() float64 { return float64(e.profiles.Evictions()) })
	e.reg.GaugeFunc("engine.cache.signature.hits", func() float64 { h, _ := e.sigs.Stats(); return float64(h) })
	e.reg.GaugeFunc("engine.cache.signature.misses", func() float64 { _, m := e.sigs.Stats(); return float64(m) })
	e.reg.GaugeFunc("engine.cache.signature.evictions", func() float64 { return float64(e.sigs.Evictions()) })
	e.reg.GaugeFunc("engine.cache.reuse.hits", func() float64 { h, _ := e.reuse.Stats(); return float64(h) })
	e.reg.GaugeFunc("engine.cache.reuse.misses", func() float64 { _, m := e.reuse.Stats(); return float64(m) })
	e.reg.GaugeFunc("engine.cache.reuse.evictions", func() float64 { return float64(e.reuse.Evictions()) })
	return e
}

// obsCtx threads the engine's registry to the pipeline stages below, so
// pebil/multimaps/psins/extrap metrics recorded during this engine's work
// land in this engine's registry rather than the process-wide default.
func (e *Engine) obsCtx(ctx context.Context) context.Context {
	return obs.Into(ctx, e.reg)
}

// fanOut runs n tasks across the engine's worker pool, returning the first
// error. A failure (or ctx cancellation) cancels the tasks that have not
// completed; fanOut returns only after every started task has finished.
func (e *Engine) fanOut(ctx context.Context, n int, task func(ctx context.Context, i int) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			select {
			case e.sem <- struct{}{}:
			case <-ctx.Done():
				errc <- ctx.Err()
				return
			}
			defer func() { <-e.sem }()
			errc <- task(ctx, i)
		}(i)
	}
	var first error
	for i := 0; i < n; i++ {
		if err := <-errc; err != nil && first == nil {
			first = err
			cancel() // stop the stragglers
		}
	}
	return first
}

// Profile returns the machine profile for cfg, running the MultiMAPS sweep
// on the first request and serving memoized results afterwards. Concurrent
// requests for the same configuration share one sweep.
func (e *Engine) Profile(ctx context.Context, cfg MachineConfig) (*Profile, error) {
	if err := e.usable(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ctx = e.obsCtx(ctx)
	sp := e.reg.StartSpan("engine.profile", cfg.Name)
	defer sp.End()
	prof, _, err := e.profiles.Do(ctx, cfg.Fingerprint(), func() (*Profile, error) {
		return multimaps.Run(ctx, cfg, multimaps.DefaultOptions(cfg))
	})
	return prof, err
}

// CollectSignature traces the application at the given core count against
// the target machine, memoizing the result: a second identical request is
// served from cache with zero new simulation. A zero opt selects the
// library defaults (CollectOptions.Normalized).
func (e *Engine) CollectSignature(ctx context.Context, app *App, cores int, target MachineConfig, opt CollectOptions) (*Signature, error) {
	sig, _, err := e.CollectSignatureFrom(ctx, app, cores, target, opt)
	return sig, err
}

// CollectSignatureFrom is CollectSignature with provenance: it reports
// which tier satisfied the request — the in-memory cache, the persistent
// store (WithStore), a fleet peer (WithRemoteTier), or a fresh simulation,
// checked in that order (see resolve). A fetched or simulated signature is
// written through memory and disk, so the next identical request is a
// memory hit, and a disk hit in a restarted process. Under the analytical
// model the signature is derived from the reuse profile and only memoized.
func (e *Engine) CollectSignatureFrom(ctx context.Context, app *App, cores int, target MachineConfig, opt CollectOptions) (*Signature, Provenance, error) {
	if err := e.usable(); err != nil {
		return nil, "", err
	}
	if app == nil {
		return nil, "", fmt.Errorf("tracex: nil application")
	}
	ctx = e.obsCtx(ctx)
	sp := e.reg.StartSpan("engine.collect", fmt.Sprintf("%s@%d", app.Name(), cores))
	defer sp.End()
	norm := opt.Normalized()
	key := sigKey{app: app.Name(), cores: cores, machine: target.Fingerprint(), opt: norm}
	return resolve(ctx, e, e.sigs, key, func() tiers[Signature] {
		target := target // a copy, so that only a miss moves it to the heap
		if norm.Model == ModelAnalytical {
			return tiers[Signature]{from: FromAnalytical, collect: func(ctx context.Context) (*Signature, error) {
				rs, _, err := e.CollectReuse(ctx, app, cores, opt)
				if err != nil {
					return nil, err
				}
				return pebil.SignatureFromReuse(rs, app, target, nil, cache.Analytical{})
			}}
		}
		t := tiers[Signature]{
			key: StoreKey(app.Name(), cores, target, opt), get: (*store.Store).Get, put: (*store.Store).Put,
			from: FromCollected, collect: func(ctx context.Context) (*Signature, error) {
				return e.collector.Collect(ctx, app, cores, target, nil, opt)
			},
		}
		if e.remote != nil && !remoteTierDisabled(ctx) {
			t.fetch = func(ctx context.Context) (*Signature, error) {
				return e.remote.FetchSignature(ctx, app.Name(), cores, target.Name, opt)
			}
		}
		return t
	})
}

// CollectReuse returns the machine-independent reuse-distance signature of
// the application at the given core count, through the memory and disk
// tiers as CollectSignatureFrom (the profile is keyed without any machine
// component, see ReuseStoreKey) and then a fresh recording. The options'
// Model does not affect the profile's identity.
func (e *Engine) CollectReuse(ctx context.Context, app *App, cores int, opt CollectOptions) (*ReuseSignature, Provenance, error) {
	if err := e.usable(); err != nil {
		return nil, "", err
	}
	if app == nil {
		return nil, "", fmt.Errorf("tracex: nil application")
	}
	ctx = e.obsCtx(ctx)
	sp := e.reg.StartSpan("engine.reuse", fmt.Sprintf("%s@%d", app.Name(), cores))
	defer sp.End()
	key := reuseKey{app: app.Name(), cores: cores, opt: reuseOpt(opt)}
	return resolve(ctx, e, e.reuse, key, func() tiers[ReuseSignature] {
		return tiers[ReuseSignature]{
			key: ReuseStoreKey(app.Name(), cores, opt), get: (*store.Store).GetReuse, put: (*store.Store).PutReuse,
			from: FromCollected, collect: func(ctx context.Context) (*ReuseSignature, error) {
				return e.collector.CollectReuse(ctx, app, cores, opt)
			},
		}
	})
}

// tiers are the sources of one artifact after the memo, in the order
// resolve consults them: get from the disk store under key (if the engine
// has one), fetch from the remote tier, and collect with provenance from.
// A nil func is a tier the request does not have.
type tiers[T any] struct {
	key     store.Key
	get     func(*store.Store, store.Key) (*T, bool, error)
	put     func(*store.Store, *T, store.Key) (store.Entry, error)
	fetch   func(context.Context) (*T, error)
	collect func(context.Context) (*T, error)
	from    Provenance
}

// resolve serves one artifact from the first tier that holds it: the memo
// (which also joins an identical in-flight request), then the tiers miss
// returns. It alone sets provenance, writes fetched and collected
// artifacts through to disk, and counts put errors and peer fetches and
// hits. A failed disk read is a miss (the store counts it), and so is a
// failed fetch unless ctx is done. A failed write only costs a future
// cold start, so it never fails the request.
func resolve[K comparable, T any](ctx context.Context, e *Engine, m *memo.Cache[K, *T], key K, miss func() tiers[T]) (*T, Provenance, error) {
	// Only the memoized function writes prov, and it runs on this
	// goroutine or not at all.
	prov := FromMemory
	v, _, err := m.Do(ctx, key, func() (*T, error) {
		t := miss()
		disk := e.disk != nil && t.get != nil
		if disk {
			if v, ok, _ := t.get(e.disk, t.key); ok {
				prov = FromDisk
				return v, nil
			}
		}
		var v *T
		if t.fetch != nil {
			e.peerFetches.Inc()
			if fv, err := t.fetch(ctx); err == nil && fv != nil {
				e.peerHits.Inc()
				v, prov = fv, FromPeer
			} else if ctx.Err() != nil {
				return nil, ctx.Err()
			}
		}
		if v == nil {
			var err error
			if v, err = t.collect(ctx); err != nil {
				return nil, err
			}
			prov = t.from
		}
		if disk {
			if _, err := t.put(e.disk, v, t.key); err != nil {
				e.putErrors.Inc()
			}
		}
		return v, nil
	})
	if err != nil {
		return nil, "", err
	}
	return v, prov, nil
}

// Store returns the engine's persistent signature store, or nil when the
// engine was built without WithStore.
func (e *Engine) Store() *SignatureStore { return e.disk }

// CollectInputs traces the application at each of the given core counts —
// the "series of smaller core counts" the extrapolation consumes — fanning
// the collections out across the engine's worker pool.
func (e *Engine) CollectInputs(ctx context.Context, app *App, counts []int, target MachineConfig, opt CollectOptions) ([]*Signature, error) {
	if err := e.usable(); err != nil {
		return nil, err
	}
	out := make([]*Signature, len(counts))
	err := e.fanOut(ctx, len(counts), func(ctx context.Context, i int) error {
		sig, err := e.CollectSignature(ctx, app, counts[i], target, opt)
		if err != nil {
			return fmt.Errorf("tracex: collecting at %d cores: %w", counts[i], err)
		}
		out[i] = sig
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Extrapolate validates opt and fits canonical scaling forms to every
// feature-vector element of the dominant task across the input signatures,
// synthesizing the signature at targetCores.
func (e *Engine) Extrapolate(ctx context.Context, inputs []*Signature, targetCores int, opt ExtrapOptions) (*ExtrapResult, error) {
	if err := e.usable(); err != nil {
		return nil, err
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	return extrap.Extrapolate(e.obsCtx(ctx), inputs, targetCores, opt)
}

// PredictRequest describes one runtime prediction for Engine.Predict.
type PredictRequest struct {
	// Signature is the application signature to predict from (collected or
	// extrapolated). Required.
	Signature *Signature
	// App supplies the communication event trace. Required.
	App *App
	// Profile is the machine profile to convolve against. When nil, the
	// engine builds (and memoizes) the profile for Machine.
	Profile *Profile
	// Machine is the configuration to profile when Profile is nil; when
	// Machine is also nil, the signature's machine name is looked up among
	// the predefined configurations.
	Machine *MachineConfig
	// WithReplay attaches the full per-rank replay result to the returned
	// Prediction.
	WithReplay bool
	// WithTimeline attaches the per-rank segment timeline to the returned
	// Prediction. Memory grows with rank count × events — intended for
	// small-to-moderate replays.
	WithTimeline bool
	// Intervals attaches runtime prediction intervals to the returned
	// Prediction. It requires the signature to carry uncertainty (from
	// ExtrapOptions.Intervals or an adaptive collection); predictions from
	// other signatures have no variance to propagate and return no
	// intervals.
	Intervals bool
	// IntervalLevels are the central interval levels to report; nil
	// selects DefaultIntervalLevels (50%, 90%, 95%). Values outside
	// (0, 1) are skipped.
	IntervalLevels []float64
}

// Predict produces the PMaC-framework runtime prediction for one request:
// the signature's dominant trace is convolved with the machine profile
// (Equation 1) and the resulting per-block times drive a replay of the
// application's communication event trace. The returned Prediction carries
// the replay result and timeline when requested. Predict replaces the
// Predict/PredictDetailed/PredictTimeline trio.
func (e *Engine) Predict(ctx context.Context, req PredictRequest) (*Prediction, error) {
	if err := e.usable(); err != nil {
		return nil, err
	}
	if req.Signature == nil {
		return nil, fmt.Errorf("tracex: predict request has no signature")
	}
	if req.App == nil {
		return nil, fmt.Errorf("tracex: predict request has no application")
	}
	ctx = e.obsCtx(ctx)
	sp := e.reg.StartSpan("engine.predict", fmt.Sprintf("%s@%d", req.Signature.App, req.Signature.CoreCount))
	defer sp.End()
	prof := req.Profile
	if prof == nil {
		cfg := req.Machine
		if cfg == nil {
			c, err := LoadMachine(req.Signature.Machine)
			if err != nil {
				return nil, err
			}
			cfg = &c
		}
		var err error
		prof, err = e.Profile(ctx, *cfg)
		if err != nil {
			return nil, err
		}
	}
	pred, err := predict(ctx, req.Signature, prof, req.App, predictDetail{
		withReplay:   req.WithReplay,
		withTimeline: req.WithTimeline,
		intervals:    req.Intervals,
		levels:       req.IntervalLevels,
	})
	if err != nil {
		return nil, err
	}
	if len(pred.Intervals) > 0 {
		e.reg.Counter("uncert.intervals").Inc()
	}
	e.predictions.Inc()
	return pred, nil
}

// PredictMany evaluates a batch of predictions across the engine's worker
// pool, returning results in request order. The first failure cancels the
// remaining requests.
func (e *Engine) PredictMany(ctx context.Context, reqs []PredictRequest) ([]*Prediction, error) {
	if err := e.usable(); err != nil {
		return nil, err
	}
	out := make([]*Prediction, len(reqs))
	err := e.fanOut(ctx, len(reqs), func(ctx context.Context, i int) error {
		pred, err := e.Predict(ctx, reqs[i])
		if err != nil {
			return fmt.Errorf("tracex: prediction %d: %w", i, err)
		}
		out[i] = pred
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Measure runs the detailed execution simulation of the application at the
// given core count on the target machine (the reproduction's ground truth).
func (e *Engine) Measure(ctx context.Context, app *App, cores int, target MachineConfig, opt CollectOptions) (*Prediction, error) {
	if err := e.usable(); err != nil {
		return nil, err
	}
	ctx = e.obsCtx(ctx)
	sp := e.reg.StartSpan("engine.measure", fmt.Sprintf("%s@%d", appName(app), cores))
	defer sp.End()
	return measure(ctx, e.collector, app, cores, target, opt)
}

// appName tolerates nil apps in span labels (the callee validates).
func appName(app *App) string {
	if app == nil {
		return "<nil>"
	}
	return app.Name()
}

// StudyRequest describes a full extrapolation study: collect signatures at
// a series of small core counts, extrapolate to one or more larger counts,
// and predict the large-scale runtimes.
type StudyRequest struct {
	// App is the proxy application. Required.
	App *App
	// Machine is the target system to profile and simulate.
	Machine MachineConfig
	// InputCounts are the core counts to trace (the paper uses three).
	InputCounts []int
	// TargetCores is the primary count to extrapolate to (beyond every
	// input).
	TargetCores int
	// TargetCounts optionally adds further extrapolation targets; the study
	// evaluates the sorted, deduplicated union of TargetCores and
	// TargetCounts, reusing the same input collections and machine profile
	// for every target.
	TargetCounts []int
	// Collect tunes signature collection; zero selects the engine default.
	Collect CollectOptions
	// Extrap tunes the extrapolation.
	Extrap ExtrapOptions
	// WithTruth additionally collects a signature at each target count and
	// predicts from it — the paper's Table I comparison baseline.
	WithTruth bool
	// Intervals runs the extrapolation with posterior model averaging and
	// attaches runtime prediction intervals to each target's extrapolated
	// prediction (and StudyRow). Point results are unchanged when false.
	Intervals bool
	// IntervalLevels are the central interval levels to report; nil
	// selects DefaultIntervalLevels (50%, 90%, 95%).
	IntervalLevels []float64
}

// targets resolves the request's target core counts: the sorted,
// deduplicated union of TargetCores and TargetCounts.
func (req *StudyRequest) targets() ([]int, error) {
	set := map[int]bool{}
	if req.TargetCores > 0 {
		set[req.TargetCores] = true
	}
	for _, t := range req.TargetCounts {
		if t <= 0 {
			return nil, fmt.Errorf("tracex: study target %d is not positive", t)
		}
		set[t] = true
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("tracex: study request has no target core count")
	}
	out := make([]int, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Ints(out)
	return out, nil
}

// StudyTarget is the full detail of one extrapolation target within a
// study.
type StudyTarget struct {
	// TargetCores is the extrapolated core count.
	TargetCores int
	// Extrapolation is the canonical-form fit and synthesized signature.
	Extrapolation *ExtrapResult
	// Extrapolated predicts the target-scale runtime from the synthesized
	// signature.
	Extrapolated *Prediction
	// Truth is the actually-collected target-scale signature and Collected
	// the prediction made from it (both nil unless StudyRequest.WithTruth).
	Truth     *Signature
	Collected *Prediction
}

// StudyRow is one per-target comparison row of a study: the paper's Table I
// shape with a stable JSON encoding (fixed field order, rows sorted by
// target core count).
type StudyRow struct {
	// TargetCores is the extrapolated core count.
	TargetCores int `json:"target_cores"`
	// PredictedSeconds is the runtime predicted from the extrapolated
	// signature.
	PredictedSeconds float64 `json:"predicted_seconds"`
	// ActualSeconds is the runtime predicted from the actually-collected
	// target-scale signature (0 unless the study ran WithTruth).
	ActualSeconds float64 `json:"actual_seconds"`
	// AbsRelErr is |predicted-actual|/actual (0 without truth).
	AbsRelErr float64 `json:"abs_rel_err"`
	// Intervals are the runtime prediction intervals on PredictedSeconds,
	// ascending by level (absent unless the study ran with
	// StudyRequest.Intervals).
	Intervals []Interval `json:"intervals,omitempty"`
}

// StudyResult is the product of an extrapolation study.
type StudyResult struct {
	// Profile is the machine profile the predictions convolved against.
	Profile *Profile
	// Inputs are the signatures collected at the small core counts.
	Inputs []*Signature
	// Targets holds the per-target results, ascending by core count.
	Targets []StudyTarget
}

// Target returns the per-target result for the given core count, or nil
// when the study did not evaluate it.
func (r *StudyResult) Target(cores int) *StudyTarget {
	for i := range r.Targets {
		if r.Targets[i].TargetCores == cores {
			return &r.Targets[i]
		}
	}
	return nil
}

// Rows returns the study's per-target comparison rows, sorted by target
// core count. The encoding/json form is stable: fixed field order and
// deterministic row order for equal results.
func (r *StudyResult) Rows() []StudyRow {
	rows := make([]StudyRow, 0, len(r.Targets))
	for _, t := range r.Targets {
		row := StudyRow{TargetCores: t.TargetCores}
		if t.Extrapolated != nil {
			row.PredictedSeconds = t.Extrapolated.Runtime
			row.Intervals = t.Extrapolated.Intervals
		}
		if t.Collected != nil {
			row.ActualSeconds = t.Collected.Runtime
			if row.ActualSeconds != 0 {
				row.AbsRelErr = math.Abs(row.PredictedSeconds-row.ActualSeconds) / row.ActualSeconds
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// Study runs a full extrapolation study: the machine profile, every input
// collection and (optionally) the per-target truth collections execute
// concurrently on the worker pool, then each target's extrapolation and
// predictions complete the pipeline (also fanned out across targets).
func (e *Engine) Study(ctx context.Context, req StudyRequest) (*StudyResult, error) {
	if err := e.usable(); err != nil {
		return nil, err
	}
	if req.App == nil {
		return nil, fmt.Errorf("tracex: study request has no application")
	}
	if len(req.InputCounts) == 0 {
		return nil, fmt.Errorf("tracex: study request has no input core counts")
	}
	targets, err := req.targets()
	if err != nil {
		return nil, err
	}
	if err := req.Extrap.Validate(); err != nil {
		return nil, err
	}
	if err := req.Machine.Validate(); err != nil {
		return nil, err
	}
	ctx = e.obsCtx(ctx)
	sp := e.reg.StartSpan("engine.study", fmt.Sprintf("%s→%v", req.App.Name(), targets))
	defer sp.End()

	res := &StudyResult{
		Inputs:  make([]*Signature, len(req.InputCounts)),
		Targets: make([]StudyTarget, len(targets)),
	}
	for i, t := range targets {
		res.Targets[i].TargetCores = t
	}
	// Phase 1 — every simulation is independent: one task per input count,
	// plus the profile sweep, plus one truth collection per target when
	// requested.
	n := len(req.InputCounts) + 1
	if req.WithTruth {
		n += len(targets)
	}
	err = e.fanOut(ctx, n, func(ctx context.Context, i int) error {
		switch {
		case i < len(req.InputCounts):
			sig, err := e.CollectSignature(ctx, req.App, req.InputCounts[i], req.Machine, req.Collect)
			if err != nil {
				return fmt.Errorf("tracex: collecting at %d cores: %w", req.InputCounts[i], err)
			}
			res.Inputs[i] = sig
			return nil
		case i == len(req.InputCounts):
			prof, err := e.Profile(ctx, req.Machine)
			if err != nil {
				return err
			}
			res.Profile = prof
			return nil
		default:
			t := &res.Targets[i-len(req.InputCounts)-1]
			sig, err := e.CollectSignature(ctx, req.App, t.TargetCores, req.Machine, req.Collect)
			if err != nil {
				return fmt.Errorf("tracex: collecting truth at %d cores: %w", t.TargetCores, err)
			}
			t.Truth = sig
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	// Phase 2 — per-target pipelines (fit, predict, optionally predict the
	// truth baseline) share the inputs and profile and run concurrently.
	err = e.fanOut(ctx, len(targets), func(ctx context.Context, i int) error {
		t := &res.Targets[i]
		exOpt := req.Extrap
		if req.Intervals {
			exOpt.Intervals = true
		}
		ext, err := e.Extrapolate(ctx, res.Inputs, t.TargetCores, exOpt)
		if err != nil {
			return err
		}
		t.Extrapolation = ext
		t.Extrapolated, err = e.Predict(ctx, PredictRequest{
			Signature: ext.Signature, App: req.App, Profile: res.Profile,
			Intervals: req.Intervals, IntervalLevels: req.IntervalLevels,
		})
		if err != nil {
			return err
		}
		if req.WithTruth {
			t.Collected, err = e.Predict(ctx, PredictRequest{
				Signature: t.Truth, App: req.App, Profile: res.Profile,
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.studies.Inc()
	return res, nil
}

// predictDetail selects the optional extras of a prediction.
type predictDetail struct {
	withReplay, withTimeline bool
	// intervals propagates the signature's extrapolation uncertainty into
	// runtime prediction intervals at the given levels (nil = defaults).
	intervals bool
	levels    []float64
}

// predict is the shared prediction implementation: convolve the dominant
// trace with the profile, then replay the communication event trace with
// the convolved per-block costs.
func predict(ctx context.Context, sig *Signature, prof *Profile, app *App, detail predictDetail) (*Prediction, error) {
	withReplay, withTimeline := detail.withReplay, detail.withTimeline
	if sig.Machine != prof.Machine.Name {
		return nil, fmt.Errorf("tracex: %w: signature simulated %q but profile is for %q",
			ErrMachineMismatch, sig.Machine, prof.Machine.Name)
	}
	if sig.App != app.Name() {
		return nil, fmt.Errorf("tracex: %w: signature is for application %q but the request names %q",
			ErrMachineMismatch, sig.App, app.Name())
	}
	dom := sig.DominantTrace()
	if dom == nil {
		return nil, fmt.Errorf("tracex: %w", ErrNoTraces)
	}
	comp, err := psins.Convolve(dom, prof)
	if err != nil {
		return nil, err
	}
	build, err := app.Build(sig.CoreCount)
	if err != nil {
		return nil, err
	}
	sched, err := psins.CompileBuild(app.Name(), sig.CoreCount, build)
	if err != nil {
		return nil, err
	}
	net, err := psins.NewNetwork(prof.Machine.Network)
	if err != nil {
		return nil, err
	}
	// Non-dominant ranks execute the same blocks scaled by their load
	// factor relative to the dominant rank (the paper scales every trace
	// file from the slowest task's prediction vector).
	domFactor := app.LoadFactor(dom.Rank)
	lf := func(rank int) float64 { return app.LoadFactor(rank) / domFactor }
	var tl *Timeline
	if withTimeline {
		tl = &Timeline{}
	}
	res, err := sched.Replay(ctx, net, psins.CostFromComputation(comp, lf), tl)
	if err != nil {
		return nil, err
	}
	pred := &Prediction{
		App:            sig.App,
		CoreCount:      sig.CoreCount,
		Machine:        sig.Machine,
		Runtime:        res.Runtime,
		ComputeSeconds: res.ComputeTime[dom.Rank],
		CommSeconds:    res.CommTime[dom.Rank],
		MemSeconds:     comp.MemSeconds,
		FPSeconds:      comp.FPSeconds,
		Timeline:       tl,
	}
	if withReplay {
		pred.Replay = res
	}
	if detail.intervals && sig.Uncertainty != nil {
		ivs, err := runtimeIntervals(ctx, dom, sig.Uncertainty, prof, comp, sched, net, lf, detail.levels)
		if err != nil {
			return nil, fmt.Errorf("tracex: propagating prediction intervals: %w", err)
		}
		pred.Intervals = ivs
	}
	return pred, nil
}
