package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tracex"
	"tracex/client"
	"tracex/internal/obs"
	"tracex/wire"
)

// Shard modes: how a node handles a key the ring assigns to a peer. The
// strings are the wire vocabulary (shared with the -shard-mode flag and
// FleetStatusResponse.Mode).
const (
	// ModeFetch (default): the non-owner delegates collection to the owner
	// and serves the returned signature locally with provenance "peer".
	ModeFetch = wire.FleetModeFetch
	// ModeRedirect: like fetch on the predict path, but a direct
	// GET /v1/signatures/{key} for a remote-owned, locally-missing key
	// answers 307 to the owner instead of proxying the bytes.
	ModeRedirect = wire.FleetModeRedirect
)

// Sentinel errors callers branch on.
var (
	// ErrOwnedLocally reports a key the ring assigns to this node: there
	// is no remote to fetch from, the local engine should collect.
	ErrOwnedLocally = errors.New("fleet: key owned locally")
	// ErrPeerUnavailable reports an owner currently on probation; the
	// engine falls back to a local collection.
	ErrPeerUnavailable = errors.New("fleet: owner on probation")
	// ErrNoPeers reports an empty ring.
	ErrNoPeers = errors.New("fleet: no peers")
)

// remote is the slice of the HTTP client the fleet uses, injectable so unit
// tests can script peers without sockets. *client.Client implements it.
type remote interface {
	GetSignature(ctx context.Context, key string) (*wire.StoredSignatureResponse, error)
	Collect(ctx context.Context, req *wire.SignatureRequest) (*wire.SignatureResponse, error)
	FleetSync(ctx context.Context, req *wire.FleetSyncRequest) (*wire.FleetSyncResponse, error)
}

const (
	// maxFetches bounds concurrent peer fetches so a slow peer cannot
	// starve local work.
	maxFetches = 4
	// fetchTimeout bounds one peer exchange, including a delegated
	// collection on the owner.
	fetchTimeout = 2 * time.Minute
)

// Config configures a Fleet.
type Config struct {
	// Self is this node's advertised base URL — its identity on the ring.
	// Required; it is added to Peers if absent.
	Self string
	// Peers is the full static membership (comma list / file contents
	// already split). See ParsePeers and LoadPeers.
	Peers []string
	// Mode is ModeFetch (default) or ModeRedirect.
	Mode string
	// Registry receives fleet.* metrics; nil disables them. Share it with
	// the engine (tracex.WithRegistry) so one /metrics page shows both.
	Registry *obs.Registry

	// newRemote constructs the per-peer client; tests inject fakes. The
	// default dials base with the shared client package.
	newRemote func(base string) remote
	// now and jitter are injectable for deterministic probation tests.
	now    func() time.Time
	jitter func(time.Duration) time.Duration
}

// Fleet is one node's view of the signature-sharing cluster: the current
// ring, a health tracker and client per peer, and the bounded fetch
// semaphore. It implements tracex.RemoteTier, so plugging it into an
// engine (tracex.WithRemoteTier) inserts the peer tier between disk and
// collection. All methods are safe for concurrent use; SetPeers may be
// called at any time (SIGHUP / poll reload).
type Fleet struct {
	self      string
	mode      string
	sem       chan struct{}
	newRemote func(base string) remote
	now       func() time.Time
	jitter    func(time.Duration) time.Duration

	mu      sync.RWMutex
	ring    *Ring
	health  map[string]*peerHealth
	remotes map[string]remote

	ownedShare atomic.Uint64 // float64 bits, recomputed on SetPeers

	fetches    *obs.Counter
	hits       *obs.Counter
	errors     *obs.Counter
	probations *obs.Counter
	replPulled *obs.Counter
	replErrors *obs.Counter
	replDone   atomic.Bool
}

// New builds a Fleet from cfg. The returned fleet is ready to serve as a
// remote tier; call SetPeers later to apply membership reloads.
func New(cfg Config) (*Fleet, error) {
	self := NormalizePeer(cfg.Self)
	if self == "" {
		return nil, fmt.Errorf("fleet: empty self URL")
	}
	mode := cfg.Mode
	if mode == "" {
		mode = ModeFetch
	}
	if mode != ModeFetch && mode != ModeRedirect {
		return nil, fmt.Errorf("fleet: unknown shard mode %q (want %q or %q)", cfg.Mode, ModeFetch, ModeRedirect)
	}
	f := &Fleet{
		self:       self,
		mode:       mode,
		sem:        make(chan struct{}, maxFetches),
		newRemote:  cfg.newRemote,
		now:        cfg.now,
		jitter:     cfg.jitter,
		health:     map[string]*peerHealth{},
		remotes:    map[string]remote{},
		fetches:    cfg.Registry.Counter("fleet.peer.fetches"),
		hits:       cfg.Registry.Counter("fleet.peer.hits"),
		errors:     cfg.Registry.Counter("fleet.peer.errors"),
		probations: cfg.Registry.Counter("fleet.peer.probations"),
		replPulled: cfg.Registry.Counter("fleet.replication.pulled"),
		replErrors: cfg.Registry.Counter("fleet.replication.errors"),
	}
	if f.newRemote == nil {
		// A couple of polite retries: a delegated collection can land while
		// the owner's admission queue is briefly full, and honoring its
		// Retry-After beats falling back to a redundant local collection.
		f.newRemote = func(base string) remote { return client.New(base, client.WithRetries(2)) }
	}
	if f.now == nil {
		f.now = time.Now
	}
	if f.jitter == nil {
		// ±50% full jitter: d/2 + U[0, d).
		f.jitter = func(d time.Duration) time.Duration {
			return d/2 + time.Duration(rand.Int63n(int64(d)))
		}
	}
	f.SetPeers(append([]string{self}, cfg.Peers...))
	cfg.Registry.GaugeFunc("fleet.ring.peers", func() float64 {
		f.mu.RLock()
		defer f.mu.RUnlock()
		return float64(f.ring.Len())
	})
	cfg.Registry.GaugeFunc("fleet.ring.owned_share", func() float64 {
		return f.OwnedShare()
	})
	return f, nil
}

// SetPeers replaces the ring membership (self is always included) and
// reports whether it actually changed. Health state and clients for
// surviving peers are preserved — a reload must not reset probation
// windows — and departed peers' state is dropped. The owned-share gauge
// is resampled under the new ring.
func (f *Fleet) SetPeers(peers []string) (changed bool) {
	ring := NewRing(append(append([]string{}, peers...), f.self))
	share := ring.OwnedShare(f.self, 0)
	f.mu.Lock()
	defer f.mu.Unlock()
	changed = f.ring == nil || !slices.Equal(ring.Peers(), f.ring.Peers())
	f.ring = ring
	for _, p := range ring.Peers() {
		if f.health[p] == nil {
			f.health[p] = newPeerHealth()
		}
		if f.remotes[p] == nil && p != f.self {
			f.remotes[p] = f.newRemote(p)
		}
	}
	for p := range f.health {
		if !ring.Contains(p) {
			delete(f.health, p)
			delete(f.remotes, p)
		}
	}
	f.ownedShare.Store(math.Float64bits(share))
	return changed
}

// Self returns this node's normalized ring identity.
func (f *Fleet) Self() string { return f.self }

// Mode returns the shard mode (ModeFetch or ModeRedirect).
func (f *Fleet) Mode() string { return f.mode }

// Ring returns the current ring snapshot.
func (f *Fleet) Ring() *Ring {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.ring
}

// Owner returns the peer owning the signature key ("" on an empty ring).
func (f *Fleet) Owner(key string) string { return f.Ring().Owner(key) }

// Owns reports whether this node owns the key.
func (f *Fleet) Owns(key string) bool { return f.Owner(key) == f.self }

// OwnedShare returns the sampled fraction of the key space this node owns.
func (f *Fleet) OwnedShare() float64 { return math.Float64frombits(f.ownedShare.Load()) }

// peer returns the remote and health tracker for the given ring member.
func (f *Fleet) peer(url string) (remote, *peerHealth) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.remotes[url], f.health[url]
}

// FetchSignature implements tracex.RemoteTier: resolve the key's owner on
// the ring and delegate the collection to it (fetch mode and redirect mode
// alike; redirect only changes the HTTP store API). Every error return
// means "collect locally": ownership by self, probation, transport trouble
// or an invalid payload never fail the caller's request.
func (f *Fleet) FetchSignature(ctx context.Context, app string, cores int, machine string, opt tracex.CollectOptions) (*tracex.Signature, error) {
	key := client.Key(app, cores, machine)
	owner := f.Owner(key)
	if owner == "" {
		return nil, ErrNoPeers
	}
	if owner == f.self {
		return nil, ErrOwnedLocally
	}
	rem, health := f.peer(owner)
	if rem == nil || health == nil {
		return nil, fmt.Errorf("fleet: owner %s left the ring", owner)
	}
	if !health.available(f.now()) {
		return nil, fmt.Errorf("%w: %s", ErrPeerUnavailable, owner)
	}
	// Bounded concurrency: block in line for a fetch slot, but never past
	// the caller's deadline.
	select {
	case f.sem <- struct{}{}:
		defer func() { <-f.sem }()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	ctx, cancel := context.WithTimeout(ctx, fetchTimeout)
	defer cancel()

	f.fetches.Inc()
	sig, err := f.fetchFrom(ctx, rem, app, cores, machine, opt)
	benched := health.observe(err == nil, f.now(), f.jitter)
	if err != nil {
		f.errors.Inc()
		if benched {
			f.probations.Inc()
		}
		return nil, err
	}
	f.hits.Inc()
	return sig, nil
}

// fetchFrom delegates the collection to the owner (Delegated=true, so the
// owner resolves memory → disk → collect strictly locally) under the exact
// identity the requester memoizes: the normalized cache model and sampling
// policy, warm-up cap included. The owner's engine memo deduplicates
// concurrent claims from every non-owner, so the identity is simulated
// once. The result is validated against the requested identity before it
// is trusted.
func (f *Fleet) fetchFrom(ctx context.Context, rem remote, app string, cores int, machine string, opt tracex.CollectOptions) (*tracex.Signature, error) {
	norm := opt.Normalized()
	resp, err := rem.Collect(ctx, &wire.SignatureRequest{
		App:       app,
		Cores:     cores,
		Machine:   machine,
		Model:     string(norm.Model),
		Sampling:  norm.Sampling.String(),
		Delegated: true,
	})
	if err != nil {
		return nil, err
	}
	return validated(resp.Signature, app, cores, machine)
}

// validated sanity-checks a peer-supplied signature before the engine
// caches and persists it: identity fields must match the request and the
// signature must be structurally valid.
func validated(sig *tracex.Signature, app string, cores int, machine string) (*tracex.Signature, error) {
	if sig == nil {
		return nil, fmt.Errorf("fleet: peer returned no signature")
	}
	if sig.App != app || sig.CoreCount != cores || sig.Machine != machine {
		return nil, fmt.Errorf("fleet: peer returned %s@%d on %s, want %s@%d on %s",
			sig.App, sig.CoreCount, sig.Machine, app, cores, machine)
	}
	if err := sig.Validate(); err != nil {
		return nil, fmt.Errorf("fleet: peer signature invalid: %w", err)
	}
	return sig, nil
}

// Status snapshots the fleet for GET /v1/fleet/status: membership with
// per-peer health, this node's key-space share, and replication progress.
func (f *Fleet) Status() *wire.FleetStatusResponse {
	now := f.now()
	f.mu.RLock()
	peers := f.ring.Peers()
	snaps := make([]healthSnapshot, len(peers))
	for i, p := range peers {
		snaps[i] = f.health[p].snapshot(now)
	}
	f.mu.RUnlock()
	resp := &wire.FleetStatusResponse{
		Self:       f.self,
		Mode:       f.mode,
		OwnedShare: f.OwnedShare(),
		Peers:      make([]wire.FleetPeerStatus, len(peers)),
		Replication: wire.FleetReplication{
			Done:   f.replDone.Load(),
			Pulled: f.replPulled.Value(),
			Errors: f.replErrors.Value(),
		},
	}
	for i, p := range peers {
		resp.Peers[i] = wire.FleetPeerStatus{
			URL:        p,
			Self:       p == f.self,
			Healthy:    snaps[i].healthy,
			ErrorRate:  snaps[i].errorRate,
			Fetches:    snaps[i].fetches,
			Hits:       snaps[i].hits,
			Errors:     snaps[i].errors,
			Probations: snaps[i].probations,
		}
	}
	return resp
}

// ParsePeers splits a comma-separated peer list, dropping empty elements.
func ParsePeers(s string) []string {
	var peers []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

// LoadPeers resolves the -peers flag: if arg names a readable file, each
// non-empty, non-#-comment line is one peer (so membership can live in a
// config file and be reloaded on SIGHUP or poll); otherwise arg itself is
// parsed as a comma-separated list.
func LoadPeers(arg string) ([]string, error) {
	arg = strings.TrimSpace(arg)
	if arg == "" {
		return nil, nil
	}
	b, err := os.ReadFile(arg)
	if err != nil {
		// A comma or non-path shape means the argument was the list
		// itself; an unreadable path-shaped argument is a real error, not
		// a one-element peer list.
		if strings.Contains(arg, ",") || !looksLikePath(arg) {
			return ParsePeers(arg), nil
		}
		return nil, fmt.Errorf("fleet: reading peers file %s: %w", arg, err)
	}
	var peers []string
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		peers = append(peers, line)
	}
	return peers, nil
}

// looksLikePath reports an argument that can only be a file reference.
func looksLikePath(arg string) bool {
	return strings.HasPrefix(arg, "/") || strings.HasPrefix(arg, "./") || strings.HasPrefix(arg, "../")
}
