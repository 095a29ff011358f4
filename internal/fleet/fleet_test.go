package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"
	"time"

	"tracex"
	"tracex/client"
	"tracex/internal/obs"
	"tracex/wire"
)

var bg = context.Background()

// Signatures the fakes serve are real collections, lazily cached per core
// count; the app and machine are fixed while cores is chosen per test so
// the key lands on whichever ring side the test needs.
const (
	sigApp     = "stencil3d"
	sigMachine = "bluewaters"
)

var sigOpt = tracex.CollectOptions{Sampling: tracex.FixedSampling(20_000, 60_000)}

// sigEngine collects the signatures the fakes serve; its memo hands every
// test the same signature for a core count.
var sigEngine = tracex.NewEngine()

func collectSigAt(t *testing.T, cores int) *tracex.Signature {
	t.Helper()
	app, err := tracex.LoadApp(sigApp)
	if err != nil {
		t.Fatal(err)
	}
	m, err := tracex.LoadMachine(sigMachine)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := sigEngine.CollectSignature(bg, app, cores, m, sigOpt)
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

// fakeRemote scripts one peer: each method delegates to the corresponding
// handler, nil handlers fail the test if reached.
type fakeRemote struct {
	t       *testing.T
	get     func(key string) (*wire.StoredSignatureResponse, error)
	collect func(req *wire.SignatureRequest) (*wire.SignatureResponse, error)
	sync    func(req *wire.FleetSyncRequest) (*wire.FleetSyncResponse, error)
}

func (f *fakeRemote) GetSignature(_ context.Context, key string) (*wire.StoredSignatureResponse, error) {
	if f.get == nil {
		f.t.Fatal("unexpected GetSignature")
	}
	return f.get(key)
}

func (f *fakeRemote) Collect(_ context.Context, req *wire.SignatureRequest) (*wire.SignatureResponse, error) {
	if f.collect == nil {
		f.t.Fatal("unexpected Collect")
	}
	return f.collect(req)
}

func (f *fakeRemote) FleetSync(_ context.Context, req *wire.FleetSyncRequest) (*wire.FleetSyncResponse, error) {
	if f.sync == nil {
		f.t.Fatal("unexpected FleetSync")
	}
	return f.sync(req)
}

// newTestFleet builds a two-node fleet — self plus one scripted peer —
// with deterministic time and jitter. It returns the fleet, the fake, and
// the registry.
func newTestFleet(t *testing.T, fake *fakeRemote, opts ...func(*Config)) (*Fleet, *obs.Registry) {
	t.Helper()
	reg := obs.New()
	cfg := Config{
		Self:      "http://self:1",
		Peers:     []string{"http://peer:2"},
		Registry:  reg,
		newRemote: func(base string) remote { return fake },
		now:       func() time.Time { return time.Unix(1000, 0) },
		jitter:    noJitter,
	}
	for _, o := range opts {
		o(&cfg)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f, reg
}

// fetchKey returns an identity (cores value) the given node does NOT own,
// so FetchSignature must go to the peer — or the reverse with owned=true.
func fetchCores(f *Fleet, owned bool) (int, bool) {
	for cores := 8; cores <= 16384; cores *= 2 {
		if f.Owns(client.Key(sigApp, cores, sigMachine)) == owned {
			return cores, true
		}
	}
	return 0, false
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty Self accepted")
	}
	if _, err := New(Config{Self: "a:1", Mode: "mirror"}); err == nil {
		t.Error("unknown shard mode accepted")
	}
	f, err := New(Config{Self: "a:1"})
	if err != nil {
		t.Fatal(err)
	}
	if f.Mode() != ModeFetch {
		t.Errorf("default mode = %q, want %q", f.Mode(), ModeFetch)
	}
	if f.Self() != "http://a:1" {
		t.Errorf("self not normalized: %q", f.Self())
	}
}

// TestFetchOwnedLocally pins the owner's path: the remote tier declines
// (ErrOwnedLocally) so the engine collects — the cluster-wide "owner
// collects" rule.
func TestFetchOwnedLocally(t *testing.T) {
	f, _ := newTestFleet(t, &fakeRemote{t: t})
	cores, ok := fetchCores(f, true)
	if !ok {
		t.Fatal("no self-owned identity found")
	}
	_, err := f.FetchSignature(bg, sigApp, cores, sigMachine, sigOpt)
	if !errors.Is(err, ErrOwnedLocally) {
		t.Fatalf("err = %v, want ErrOwnedLocally", err)
	}
}

// TestFetchFromOwnerStore pins the happy path: the owner already holds the
// signature and answers the delegated collection from its own tiers, the
// fetch validates it and the counters move.
func TestFetchFromOwnerStore(t *testing.T) {
	fake := &fakeRemote{t: t}
	f, reg := newTestFleet(t, fake)
	cores, ok := fetchCores(f, false)
	if !ok {
		t.Fatal("no peer-owned identity found")
	}
	sig := collectSigAt(t, cores)
	fake.collect = func(req *wire.SignatureRequest) (*wire.SignatureResponse, error) {
		if req.App != sigApp || req.Cores != cores || req.Machine != sigMachine {
			t.Errorf("delegated %s@%d@%s, want %s@%d@%s", req.App, req.Cores, req.Machine, sigApp, cores, sigMachine)
		}
		return &wire.SignatureResponse{Signature: sig}, nil
	}
	got, err := f.FetchSignature(bg, sigApp, cores, sigMachine, sigOpt)
	if err != nil {
		t.Fatal(err)
	}
	if got != sig {
		t.Error("fetched signature not returned")
	}
	if v := reg.Counter("fleet.peer.fetches").Value(); v != 1 {
		t.Errorf("fleet.peer.fetches = %d, want 1", v)
	}
	if v := reg.Counter("fleet.peer.hits").Value(); v != 1 {
		t.Errorf("fleet.peer.hits = %d, want 1", v)
	}
}

// TestFetchDelegates pins the claim path: the non-owner delegates the
// collection with Delegated=true under its exact identity — the normalized
// model and sampling policy, warm-up cap included — and serves the result.
// It never reads the owner's store, which answers the triple under any
// options.
func TestFetchDelegates(t *testing.T) {
	fake := &fakeRemote{t: t}
	f, _ := newTestFleet(t, fake)
	cores, ok := fetchCores(f, false)
	if !ok {
		t.Fatal("no peer-owned identity found")
	}
	sig := collectSigAt(t, cores)
	var delegated *wire.SignatureRequest
	fake.collect = func(req *wire.SignatureRequest) (*wire.SignatureResponse, error) {
		delegated = req
		return &wire.SignatureResponse{Signature: sig}, nil
	}
	got, err := f.FetchSignature(bg, sigApp, cores, sigMachine, sigOpt)
	if err != nil {
		t.Fatal(err)
	}
	if got != sig {
		t.Error("delegated signature not returned")
	}
	if delegated == nil || !delegated.Delegated {
		t.Fatalf("delegation request = %+v, want Delegated=true", delegated)
	}
	if delegated.App != sigApp || delegated.Cores != cores || delegated.Machine != sigMachine {
		t.Errorf("delegation identity = %+v", delegated)
	}
	if delegated.Sampling != "fixed:20000,warm=60000" || delegated.Model != string(tracex.ModelExact) {
		t.Errorf("delegated sampling %q model %q, want fixed:20000,warm=60000 and exact", delegated.Sampling, delegated.Model)
	}
}

// TestFetchRejectsMismatch pins validation: a peer answering with the
// wrong identity is an error, never cached.
func TestFetchRejectsMismatch(t *testing.T) {
	fake := &fakeRemote{t: t}
	f, reg := newTestFleet(t, fake)
	cores, ok := fetchCores(f, false)
	if !ok {
		t.Fatal("no peer-owned identity found")
	}
	// The peer answers with a signature for a different core count than
	// the one requested.
	sig := collectSigAt(t, cores)
	fake.collect = func(*wire.SignatureRequest) (*wire.SignatureResponse, error) {
		return &wire.SignatureResponse{Signature: sig}, nil
	}
	wrong, ok := nextPeerCores(f, cores)
	if !ok {
		t.Fatal("only one peer-owned identity under this ring")
	}
	if _, err := f.FetchSignature(bg, sigApp, wrong, sigMachine, sigOpt); err == nil {
		t.Fatal("mismatched signature accepted")
	}
	if v := reg.Counter("fleet.peer.errors").Value(); v != 1 {
		t.Errorf("fleet.peer.errors = %d, want 1", v)
	}
}

// nextPeerCores finds a second peer-owned core count.
func nextPeerCores(f *Fleet, not int) (int, bool) {
	for cores := 8; cores <= 16384; cores *= 2 {
		if cores != not && !f.Owns(client.Key(sigApp, cores, sigMachine)) {
			return cores, true
		}
	}
	return 0, false
}

// TestFetchProbation pins the circuit breaker: after probationAfter
// consecutive failures the peer is benched and further fetches fail fast
// with ErrPeerUnavailable, without touching the peer.
func TestFetchProbation(t *testing.T) {
	fake := &fakeRemote{t: t}
	calls := 0
	fake.collect = func(*wire.SignatureRequest) (*wire.SignatureResponse, error) {
		calls++
		return nil, errors.New("connection refused")
	}
	f, reg := newTestFleet(t, fake)
	cores, ok := fetchCores(f, false)
	if !ok {
		t.Fatal("no peer-owned identity found")
	}
	for i := 0; i < probationAfter; i++ {
		if _, err := f.FetchSignature(bg, sigApp, cores, sigMachine, sigOpt); err == nil {
			t.Fatal("failing peer reported success")
		}
	}
	if calls != probationAfter {
		t.Fatalf("peer saw %d calls, want %d", calls, probationAfter)
	}
	_, err := f.FetchSignature(bg, sigApp, cores, sigMachine, sigOpt)
	if !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("benched fetch err = %v, want ErrPeerUnavailable", err)
	}
	if calls != probationAfter {
		t.Errorf("benched fetch still reached the peer (%d calls)", calls)
	}
	if v := reg.Counter("fleet.peer.probations").Value(); v != 1 {
		t.Errorf("fleet.peer.probations = %d, want 1", v)
	}
	status := f.Status()
	var peerStat *wire.FleetPeerStatus
	for i := range status.Peers {
		if !status.Peers[i].Self {
			peerStat = &status.Peers[i]
		}
	}
	if peerStat == nil || peerStat.Healthy || peerStat.Probations != 1 || peerStat.ErrorRate == 0 {
		t.Errorf("benched peer status = %+v", peerStat)
	}
}

// TestSetPeersPreservesHealth pins reload semantics: surviving peers keep
// their probation state, departed peers are forgotten.
func TestSetPeersPreservesHealth(t *testing.T) {
	fake := &fakeRemote{t: t}
	fake.collect = func(*wire.SignatureRequest) (*wire.SignatureResponse, error) {
		return nil, errors.New("down")
	}
	f, _ := newTestFleet(t, fake)
	cores, ok := fetchCores(f, false)
	if !ok {
		t.Fatal("no peer-owned identity found")
	}
	for i := 0; i < probationAfter; i++ {
		f.FetchSignature(bg, sigApp, cores, sigMachine, sigOpt)
	}

	// Reload with the same membership plus a newcomer: the benched peer
	// stays benched.
	f.SetPeers([]string{"http://peer:2", "http://new:3"})
	if f.Ring().Len() != 3 {
		t.Fatalf("ring size = %d, want 3", f.Ring().Len())
	}
	_, health := f.peer("http://peer:2")
	if health.available(time.Unix(1000, 0)) {
		t.Error("reload reset the peer's probation")
	}

	// Dropping the peer forgets it entirely.
	f.SetPeers([]string{"http://new:3"})
	if rem, h := f.peer("http://peer:2"); rem != nil || h != nil {
		t.Error("departed peer's state retained")
	}
}

// TestStatusShape pins the status document: self flagged, share sampled,
// mode echoed.
func TestStatusShape(t *testing.T) {
	f, _ := newTestFleet(t, &fakeRemote{t: t}, func(c *Config) { c.Mode = ModeRedirect })
	st := f.Status()
	if st.Self != "http://self:1" || st.Mode != ModeRedirect {
		t.Errorf("status header = %+v", st)
	}
	if len(st.Peers) != 2 {
		t.Fatalf("status lists %d peers, want 2", len(st.Peers))
	}
	selfSeen := false
	for _, p := range st.Peers {
		if p.Self {
			selfSeen = true
			if p.URL != "http://self:1" {
				t.Errorf("self URL = %q", p.URL)
			}
		}
		if !p.Healthy {
			t.Errorf("fresh peer %s unhealthy", p.URL)
		}
	}
	if !selfSeen {
		t.Error("self not flagged in status")
	}
	if st.OwnedShare <= 0 || st.OwnedShare >= 1 {
		t.Errorf("owned share = %v, want in (0, 1) for a 2-ring", st.OwnedShare)
	}
}

func TestParsePeers(t *testing.T) {
	got := ParsePeers(" a:1, ,b:2,,")
	if len(got) != 2 || got[0] != "a:1" || got[1] != "b:2" {
		t.Errorf("ParsePeers = %v", got)
	}
	if got := ParsePeers(""); got != nil {
		t.Errorf("ParsePeers(empty) = %v", got)
	}
}

func TestLoadPeers(t *testing.T) {
	// Comma form passes through.
	peers, err := LoadPeers("a:1,b:2")
	if err != nil || len(peers) != 2 {
		t.Fatalf("comma form: %v, %v", peers, err)
	}
	// File form reads lines, skipping blanks and comments.
	dir := t.TempDir()
	file := dir + "/peers.txt"
	if err := writeFile(file, "# fleet\nhttp://a:1\n\nhttp://b:2\n"); err != nil {
		t.Fatal(err)
	}
	peers, err = LoadPeers(file)
	if err != nil || len(peers) != 2 || peers[0] != "http://a:1" {
		t.Fatalf("file form: %v, %v", peers, err)
	}
	// A path-looking argument that doesn't exist is an error, not an
	// accidental one-element peer list.
	if _, err := LoadPeers(dir + "/missing.txt"); err == nil {
		t.Error("missing peers file accepted")
	}
}

// TestReplicate pins warm-start replication: a node with an empty store
// pulls exactly the keys it owns from a peer's manifest — one self-owned
// entry is pulled by its content hash, one peer-owned entry is left alone —
// and files each under the peer's own key for it.
func TestReplicate(t *testing.T) {
	fake := &fakeRemote{t: t}
	f, reg := newTestFleet(t, fake)
	mine, ok := fetchCores(f, true)
	if !ok {
		t.Fatal("no self-owned identity found")
	}
	theirs, ok := fetchCores(f, false)
	if !ok {
		t.Fatal("no peer-owned identity found")
	}
	sig := collectSigAt(t, mine)
	key := client.Key(sigApp, mine, sigMachine)
	m, err := tracex.LoadMachine(sigMachine)
	if err != nil {
		t.Fatal(err)
	}
	sigKey := tracex.StoreKey(sigApp, mine, m, sigOpt)

	fake.sync = func(req *wire.FleetSyncRequest) (*wire.FleetSyncResponse, error) {
		if len(req.Have) != 0 {
			t.Errorf("empty store advertised %v", req.Have)
		}
		return &wire.FleetSyncResponse{Entries: []wire.FleetSyncEntry{
			{App: sigApp, Cores: mine, Machine: sigMachine, MachineFP: sigKey.MachineFP, Opt: sigKey.Opt, Hash: "x", Bytes: 1},
			{App: sigApp, Cores: theirs, Machine: sigMachine, Hash: "y", Bytes: 1},
		}}, nil
	}
	fake.get = func(k string) (*wire.StoredSignatureResponse, error) {
		if k != "x" {
			t.Errorf("pulled %q, want only the owned entry's hash x", k)
		}
		return &wire.StoredSignatureResponse{App: sigApp, Cores: mine, Machine: sigMachine, Signature: sig}, nil
	}

	eng := tracex.NewEngine(tracex.WithStore(t.TempDir()))
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	pulled, err := f.Replicate(bg, eng)
	if err != nil {
		t.Fatal(err)
	}
	if pulled != 1 {
		t.Fatalf("pulled %d, want 1", pulled)
	}
	if v := reg.Counter("fleet.replication.pulled").Value(); v != 1 {
		t.Errorf("fleet.replication.pulled = %d, want 1", v)
	}
	if !f.Status().Replication.Done {
		t.Error("replication not marked done")
	}
	// The pulled signature resolves from the local store under the key it
	// was collected for, and does not answer default-options requests.
	got, ok, err := eng.Store().Get(sigKey)
	if err != nil || !ok || got == nil {
		t.Fatalf("pulled signature not in store under its own key: ok=%v err=%v", ok, err)
	}
	if _, ok, _ := eng.Store().Get(tracex.StoreKey(sigApp, mine, m, tracex.CollectOptions{})); ok {
		t.Error("pulled signature filed under the default-options key")
	}

	// A second pass with the now-populated store advertises the pulled
	// object's content hash and pulls nothing.
	entries := eng.Store().Entries()
	if len(entries) != 1 {
		t.Fatalf("store holds %d entries after one pull", len(entries))
	}
	fake.sync = func(req *wire.FleetSyncRequest) (*wire.FleetSyncResponse, error) {
		if len(req.Have) != 1 || req.Have[0] != entries[0].Hash {
			t.Errorf("second sync advertised %v, want [%s] (%s)", req.Have, entries[0].Hash, key)
		}
		return &wire.FleetSyncResponse{}, nil
	}
	if pulled, err = f.Replicate(bg, eng); err != nil || pulled != 0 {
		t.Fatalf("second replicate pulled %d, %v, want 0", pulled, err)
	}
}

// writeFile is a tiny helper (os.WriteFile with fixed mode).
func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// TestPullOneKeepsUncertainty: a replicated adaptive signature is filed
// with its measurement variances intact.
func TestPullOneKeepsUncertainty(t *testing.T) {
	app, err := tracex.LoadApp(sigApp)
	if err != nil {
		t.Fatal(err)
	}
	m, err := tracex.LoadMachine(sigMachine)
	if err != nil {
		t.Fatal(err)
	}
	opt := tracex.CollectOptions{Sampling: tracex.SamplingPolicy{Mode: tracex.SamplingModeAdaptive,
		TargetRelErr: 0.1, PilotRefs: 5_000, MinRefs: 5_000, MaxRefs: 50_000, ClusterBlocks: true}}
	sig, err := sigEngine.CollectSignature(bg, app, 16, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sig.Uncertainty == nil {
		t.Fatal("adaptive collection carries no uncertainty")
	}
	// The peer answers over JSON, as the HTTP client does.
	body, err := json.Marshal(&wire.StoredSignatureResponse{App: sigApp, Cores: 16, Machine: sigMachine, Signature: sig})
	if err != nil {
		t.Fatal(err)
	}
	fake := &fakeRemote{t: t, get: func(string) (*wire.StoredSignatureResponse, error) {
		var resp wire.StoredSignatureResponse
		return &resp, json.Unmarshal(body, &resp)
	}}
	f, _ := newTestFleet(t, fake)
	eng := tracex.NewEngine(tracex.WithStore(t.TempDir()))
	defer eng.Close()
	key := tracex.StoreKey(sigApp, 16, m, opt)
	entry := wire.FleetSyncEntry{App: sigApp, Cores: 16, Machine: sigMachine, MachineFP: key.MachineFP, Opt: key.Opt, Hash: "x"}
	if _, err := f.pullOne(bg, fake, eng.Store(), entry); err != nil {
		t.Fatal(err)
	}
	got, ok, err := eng.Store().Get(key)
	if err != nil || !ok {
		t.Fatalf("pulled signature not stored: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, sig) {
		t.Errorf("stored signature differs from the peer's (uncertainty %v)", got.Uncertainty != nil)
	}
}
