package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"tracex"
	"tracex/internal/fleet"
	"tracex/internal/obs"
	"tracex/wire"
)

// This file is the in-process fleet acceptance test: a real N-node cluster
// over loopback — one engine, store, fleet and server per node, wired the
// way cmd/tracexd wires them — exercised through the public HTTP surface.
// The cluster-wide collection-dedupe contract lives here: the same
// identity predicted at every node must be collected exactly once.

// fleetNode is one member of an in-process test cluster.
type fleetNode struct {
	srv *Server
	eng *tracex.Engine
	flt *fleet.Fleet
	url string
}

// startFleetCluster boots n fully wired nodes sharing one static
// membership. Listeners are reserved before any fleet exists so every
// node knows the full peer list (ring identity = listen address) up
// front, the same chicken-and-egg order a static -peers file gives
// tracexd deployments.
func startFleetCluster(t *testing.T, n int, mode string) []*fleetNode {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*fleetNode, n)
	for i := range nodes {
		reg := obs.New()
		flt, err := fleet.New(fleet.Config{
			Self:     urls[i],
			Peers:    urls,
			Mode:     mode,
			Registry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		eng := tracex.NewEngine(
			tracex.WithRegistry(reg),
			tracex.WithStore(t.TempDir()),
			tracex.WithRemoteTier(flt),
		)
		if err := eng.Err(); err != nil {
			t.Fatal(err)
		}
		// Explicit admission bounds: the defaults derive from NumCPU, and on
		// a small CI host an owner fielding its own predict plus two
		// delegated collections would 429 the overflow before the cluster
		// contract could be observed.
		srv, err := New(Config{Engine: eng, Fleet: flt, MaxInFlight: 8, QueueWait: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(lns[i]) //nolint:errcheck // Shutdown in cleanup surfaces errors
		nodes[i] = &fleetNode{srv: srv, eng: eng, flt: flt, url: urls[i]}
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = nd.srv.Shutdown(ctx)
			cancel()
			_ = nd.eng.Close()
		}
	})
	return nodes
}

// fleetIdentity finds the smallest stencil3d core count whose triple key is
// owned by the wanted node, so tests can steer an identity onto (or off) a
// node. Ring ownership hashes the nodes' random loopback ports, so the
// search walks every count in stencil3d's range rather than a handful.
func fleetIdentity(t *testing.T, nodes []*fleetNode, owner int) (cores int, key string) {
	t.Helper()
	for cores := 8; cores <= 16384; cores++ {
		key := fmt.Sprintf("stencil3d@%d@bluewaters", cores)
		if nodes[0].flt.Owner(key) == nodes[owner].url {
			return cores, key
		}
	}
	t.Fatalf("no stencil3d identity owned by node %d in 8..16384 cores", owner)
	return 0, ""
}

// predictBody builds the predict request for one identity, with sampling
// turned down so real collections stay fast.
func predictBody(cores int) string {
	return fmt.Sprintf(`{"app":"stencil3d","cores":%d,"machine":"bluewaters","sampling":"fixed:20000"}`, cores)
}

// TestFleetExactlyOnce is the headline contract: the same identity
// predicted at every node of a 3-node cluster is collected exactly once
// cluster-wide — the ring owner collects, the others fetch from it and
// answer with provenance "peer" — with zero 5xx along the way.
func TestFleetExactlyOnce(t *testing.T) {
	nodes := startFleetCluster(t, 3, fleet.ModeFetch)
	cores, key := fleetIdentity(t, nodes, 0)

	// All three nodes race the same identity; delegation lands every
	// claim on node 0, whose engine memoizes them into one collection.
	type answer struct {
		status int
		resp   wire.PredictResponse
		body   string
	}
	answers := make([]answer, len(nodes))
	var wg sync.WaitGroup
	for i, nd := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(nd.url+"/v1/predict", "application/json",
				strings.NewReader(predictBody(cores)))
			if err != nil {
				return // status stays 0
			}
			defer resp.Body.Close()
			answers[i].status = resp.StatusCode
			var raw json.RawMessage
			if err := json.NewDecoder(resp.Body).Decode(&raw); err == nil {
				answers[i].body = string(raw)
				_ = json.Unmarshal(raw, &answers[i].resp)
			}
		}()
	}
	wg.Wait()

	for i, a := range answers {
		if a.status != http.StatusOK {
			t.Fatalf("node %d predict: status %d, body %s", i, a.status, a.body)
		}
		if a.resp.RuntimeSeconds <= 0 {
			t.Errorf("node %d predict: non-positive runtime in %s", i, a.body)
		}
	}

	// Exactly one collection cluster-wide: only the owner's engine ran a
	// simulation. pebil.blocks counts simulated basic blocks, so it is
	// zero on any node whose request was satisfied without collecting —
	// the same signal the fleet-smoke script reads from /metrics.
	simulated := 0
	for i, nd := range nodes {
		if nd.eng.Registry().Counter("pebil.blocks").Value() > 0 {
			simulated++
			if i != 0 {
				t.Errorf("node %d simulated a collection; only the owner (node 0) should", i)
			}
		}
	}
	if simulated != 1 {
		t.Errorf("%d nodes simulated the collection, want exactly 1", simulated)
	}

	// The owner answered from its own tiers; the others answered "peer".
	if from := answers[0].resp.From; from == string(tracex.FromPeer) {
		t.Errorf("owner answered from %q; the owner must not peer-fetch", from)
	}
	for i := 1; i < len(nodes); i++ {
		if from := answers[i].resp.From; from != string(tracex.FromPeer) {
			t.Errorf("node %d answered from %q, want %q", i, from, tracex.FromPeer)
		}
		st := nodes[i].eng.Stats()
		if st.PeerFetches != 1 || st.PeerHits != 1 {
			t.Errorf("node %d peer fetches/hits = %d/%d, want 1/1", i, st.PeerFetches, st.PeerHits)
		}
	}

	// Peer hits write through to local disk: a restarted non-owner engine
	// over the same store directory would warm-start from disk, and the
	// running one answers the repeat from memory without another fetch.
	for i := 1; i < len(nodes); i++ {
		if st := nodes[i].eng.Store(); st != nil {
			if _, ok := st.LatestEntry("stencil3d", "bluewaters", cores); !ok {
				t.Errorf("node %d store missing the fetched signature", i)
			}
		}
		resp, body := post(t, nodes[i].url+"/v1/predict", predictBody(cores))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("node %d repeat predict: %d %s", i, resp.StatusCode, body)
		}
		if st := nodes[i].eng.Stats(); st.PeerFetches != 1 {
			t.Errorf("node %d repeat predict fetched again (fetches=%d)", i, st.PeerFetches)
		}
	}

	// The stored copy is addressable over the wire on the owner.
	resp, err := http.Get(nodes[0].url + "/v1/signatures/" + key)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("owner GET %s: %d", key, resp.StatusCode)
	}
}

// TestFleetOwnerDownFallsBack kills the ring owner and checks a surviving
// node still answers — by collecting locally — rather than failing the
// predict. Peer trouble must degrade to single-node behavior.
func TestFleetOwnerDownFallsBack(t *testing.T) {
	nodes := startFleetCluster(t, 3, fleet.ModeFetch)
	cores, _ := fleetIdentity(t, nodes, 0)

	// Take the owner down hard: close its listener and sockets.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := nodes[0].srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	resp, body := post(t, nodes[1].url+"/v1/predict", predictBody(cores))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict with owner down: %d %s", resp.StatusCode, body)
	}
	var pr wire.PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.From != string(tracex.FromCollected) {
		t.Errorf("predict with owner down answered from %q, want %q", pr.From, tracex.FromCollected)
	}
	st := nodes[1].eng.Stats()
	if st.PeerFetches != 1 || st.PeerHits != 0 {
		t.Errorf("peer fetches/hits = %d/%d, want 1/0 (attempted, failed, fell back)", st.PeerFetches, st.PeerHits)
	}
	if st.Collections != 1 {
		t.Errorf("local collections = %d, want 1", st.Collections)
	}
}

// TestFleetPeerAnswersExactIdentity checks that a non-owner answers under
// the exact identity it was asked for, warm-up cap included: its runtime
// equals a standalone engine's prediction under the same sampling policy,
// whatever else the owner already holds for the app@cores@machine triple.
func TestFleetPeerAnswersExactIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("real collections in -short mode")
	}
	cases := []struct {
		name   string
		seed   string // policy the owner collects first ("" = none)
		policy string
	}{
		{"owner holds another policy", "fixed:20000", "fixed:30000"},
		{"first-time warm cap", "", "fixed:20000,warm=20000"},
	}
	body := func(cores int, policy string) string {
		return fmt.Sprintf(`{"app":"stencil3d","cores":%d,"machine":"bluewaters","sampling":%q}`, cores, policy)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nodes := startFleetCluster(t, 3, fleet.ModeFetch)
			cores, _ := fleetIdentity(t, nodes, 0)
			if tc.seed != "" {
				if resp, b := post(t, nodes[0].url+"/v1/predict", body(cores, tc.seed)); resp.StatusCode != http.StatusOK {
					t.Fatalf("owner seed predict: %d %s", resp.StatusCode, b)
				}
			}
			resp, b := post(t, nodes[1].url+"/v1/predict", body(cores, tc.policy))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("non-owner predict: %d %s", resp.StatusCode, b)
			}
			var pr wire.PredictResponse
			if err := json.Unmarshal(b, &pr); err != nil {
				t.Fatal(err)
			}
			if pr.From != string(tracex.FromPeer) {
				t.Errorf("non-owner answered from %q, want %q", pr.From, tracex.FromPeer)
			}

			pol, err := tracex.ParseSamplingPolicy(tc.policy)
			if err != nil {
				t.Fatal(err)
			}
			app, err := tracex.LoadApp("stencil3d")
			if err != nil {
				t.Fatal(err)
			}
			m, err := tracex.LoadMachine("bluewaters")
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			sig, err := sharedEng.CollectSignature(ctx, app, cores, m, tracex.CollectOptions{Sampling: pol})
			if err != nil {
				t.Fatal(err)
			}
			want, err := sharedEng.Predict(ctx, tracex.PredictRequest{Signature: sig, App: app})
			if err != nil {
				t.Fatal(err)
			}
			if pr.RuntimeSeconds != want.Runtime {
				t.Errorf("non-owner %s runtime %.9f s, want %.9f s from a standalone %s collection",
					tc.policy, pr.RuntimeSeconds, want.Runtime, tc.policy)
			}
		})
	}
}

// TestFleetRedirectMode checks the alternative shard mode: signature GETs
// for a remote-owned key this node has never cached answer 307 to the
// owner, and following the redirect lands on the owner's copy.
func TestFleetRedirectMode(t *testing.T) {
	nodes := startFleetCluster(t, 3, fleet.ModeRedirect)
	cores, key := fleetIdentity(t, nodes, 0)

	// Seed the owner via its own predict (local collect).
	resp, body := post(t, nodes[0].url+"/v1/predict", predictBody(cores))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner predict: %d %s", resp.StatusCode, body)
	}

	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	r, err := noFollow.Get(nodes[1].url + "/v1/signatures/" + key)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("non-owner GET in redirect mode: %d, want 307", r.StatusCode)
	}
	want := nodes[0].url + wire.PathSignaturePrefix + key
	if loc := r.Header.Get("Location"); loc != want {
		t.Errorf("redirect Location = %q, want %q", loc, want)
	}

	// A default client follows the hop to the owner's stored copy.
	r2, err := http.Get(nodes[1].url + "/v1/signatures/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Errorf("followed redirect: %d", r2.StatusCode)
	}

	// Redirect mode still peer-fetches on the predict path: predicts need
	// signature bytes in-process, so only raw GETs bounce to the owner.
	resp, body = post(t, nodes[2].url+"/v1/predict", predictBody(cores))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("non-owner predict in redirect mode: %d %s", resp.StatusCode, body)
	}
	var pr wire.PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.From != string(tracex.FromPeer) {
		t.Errorf("non-owner predict in redirect mode answered from %q, want %q", pr.From, tracex.FromPeer)
	}
}

// TestFleetStatusAndSyncRoutes exercises the two fleet routes end to end
// on a live cluster, plus their 501 on a fleet-less daemon.
func TestFleetStatusAndSyncRoutes(t *testing.T) {
	nodes := startFleetCluster(t, 3, fleet.ModeFetch)
	cores, key := fleetIdentity(t, nodes, 0)

	// Status: full membership, exactly one self, shares sum to ~1.
	r, err := http.Get(nodes[1].url + "/v1/fleet/status")
	if err != nil {
		t.Fatal(err)
	}
	var status wire.FleetStatusResponse
	err = json.NewDecoder(r.Body).Decode(&status)
	r.Body.Close()
	if err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("fleet status: %d, %v", r.StatusCode, err)
	}
	if status.Self != nodes[1].url || status.Mode != wire.FleetModeFetch || len(status.Peers) != 3 {
		t.Errorf("status = self %q mode %q %d peers", status.Self, status.Mode, len(status.Peers))
	}
	selfs := 0
	for _, p := range status.Peers {
		if p.Self {
			selfs++
		}
	}
	if selfs != 1 {
		t.Errorf("status marks %d peers as self, want 1", selfs)
	}

	// Sync: after the owner collects, its manifest diff offers the entry,
	// and a have-set containing it empties the diff.
	if resp, body := post(t, nodes[0].url+"/v1/predict", predictBody(cores)); resp.StatusCode != http.StatusOK {
		t.Fatalf("owner predict: %d %s", resp.StatusCode, body)
	}
	_, body := post(t, nodes[0].url+"/v1/fleet/sync", `{}`)
	var sync1 wire.FleetSyncResponse
	if err := json.Unmarshal(body, &sync1); err != nil {
		t.Fatal(err)
	}
	if len(sync1.Entries) != 1 || sync1.Entries[0].App != "stencil3d" || sync1.Entries[0].Cores != cores {
		t.Errorf("sync diff = %s, want the one collected entry", body)
	}
	_, body = post(t, nodes[0].url+"/v1/fleet/sync", fmt.Sprintf(`{"have":[%q]}`, key))
	var sync2 wire.FleetSyncResponse
	if err := json.Unmarshal(body, &sync2); err != nil {
		t.Fatal(err)
	}
	if len(sync2.Entries) != 0 {
		t.Errorf("sync diff with full have-set = %s, want empty", body)
	}

	// A single-node daemon answers 501 no_fleet on both routes; its wire
	// surface is otherwise unchanged.
	_, solo := newTestServer(t, Config{Engine: sharedEng})
	r, err = http.Get(solo + "/v1/fleet/status")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotImplemented {
		t.Errorf("fleet status without fleet: %d, want 501", r.StatusCode)
	}
	if resp, _ := post(t, solo+"/v1/fleet/sync", `{}`); resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("fleet sync without fleet: %d, want 501", resp.StatusCode)
	}
}

// TestFleetReplicationOverWire runs the warm-start replicator against a
// live peer: a fresh node whose ring assigns it an identity the peer
// already holds pulls exactly that signature into its own store.
func TestFleetReplicationOverWire(t *testing.T) {
	nodes := startFleetCluster(t, 3, fleet.ModeFetch)

	// Seed the cluster with one identity owned by node 0, collected on the
	// owner itself.
	cores, key := fleetIdentity(t, nodes, 0)
	resp, body := post(t, nodes[0].url+"/v1/predict", predictBody(cores))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed predict: %d %s", resp.StatusCode, body)
	}

	// Negative side first: node 2 owns none of the seeded keys, so its
	// replication pass over the live cluster must pull nothing.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	pulled, err := nodes[2].flt.Replicate(ctx, nodes[2].eng)
	if err != nil {
		t.Fatalf("replicate: %v", err)
	}
	if pulled != 0 {
		t.Errorf("node 2 pulled %d signatures it does not own, want 0", pulled)
	}

	// The positive path over real HTTP: node 0 re-pulls its own key after
	// losing its store. Simulate the loss with a fresh engine+fleet pair
	// sharing node 0's ring identity (a rebuilt node) and an empty store.
	reg := obs.New()
	flt, err := fleet.New(fleet.Config{
		Self:     nodes[0].url,
		Peers:    []string{nodes[0].url, nodes[1].url, nodes[2].url},
		Mode:     fleet.ModeFetch,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := tracex.NewEngine(tracex.WithRegistry(reg), tracex.WithStore(t.TempDir()), tracex.WithRemoteTier(flt))
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Node 1 must hold the owner's key for the rebuilt node to find: fetch
	// it there first (peer tier caches it on disk).
	if resp, body := post(t, nodes[1].url+"/v1/predict", predictBody(cores)); resp.StatusCode != http.StatusOK {
		t.Fatalf("warming node 1: %d %s", resp.StatusCode, body)
	}

	pulled, err = flt.Replicate(ctx, eng)
	if err != nil {
		t.Fatalf("rebuilt-node replicate: %v", err)
	}
	if pulled != 1 {
		t.Errorf("rebuilt node pulled %d signatures, want 1", pulled)
	}
	if _, ok := eng.Store().LatestEntry("stencil3d", "bluewaters", cores); !ok {
		t.Errorf("rebuilt node store missing %s after replication", key)
	}
}
