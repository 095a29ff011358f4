package fleet

import (
	"context"
	"fmt"

	"tracex"
	"tracex/client"
	"tracex/internal/store"
	"tracex/wire"
)

// Replicate warm-starts the engine's store from the fleet: it asks every
// peer for the signature keys it holds beyond this node's own manifest
// (POST /v1/fleet/sync), keeps the ones the ring assigns to this node, and
// pulls each over the store read path into the local disk store. A node
// that restarts with an empty disk — or joins a ring whose keys it now
// owns — thereby serves its share from disk instead of re-collecting.
//
// The pull is strictly best-effort and bounded: peers are visited one at a
// time, each GET rides the fleet's fetch semaphore and timeout, an
// unreachable peer is skipped (its keys stay collectable on demand), and
// ctx cancellation stops the sweep between keys. It returns the number of
// signatures pulled and the first error seen, and records progress in the
// fleet.replication.{pulled,errors} counters either way.
func (f *Fleet) Replicate(ctx context.Context, eng *tracex.Engine) (pulled int, firstErr error) {
	defer f.replDone.Store(true)
	st := eng.Store()
	if st == nil {
		return 0, nil
	}
	fail := func(err error) {
		f.replErrors.Inc()
		if firstErr == nil {
			firstErr = err
		}
	}

	have, haveSet := manifestTriples(st)
	for _, peer := range f.Ring().Peers() {
		if peer == f.self {
			continue
		}
		if err := ctx.Err(); err != nil {
			fail(err)
			return pulled, firstErr
		}
		rem, health := f.peer(peer)
		if rem == nil || health == nil || !health.available(f.now()) {
			continue
		}
		resp, err := rem.FleetSync(ctx, &wire.FleetSyncRequest{Have: have})
		if err != nil {
			health.observe(false, f.now(), f.jitter)
			fail(fmt.Errorf("fleet: sync with %s: %w", peer, err))
			continue
		}
		health.observe(true, f.now(), f.jitter)
		for _, e := range resp.Entries {
			key := client.Key(e.App, e.Cores, e.Machine)
			if haveSet[key] || !f.Owns(key) {
				continue
			}
			if err := ctx.Err(); err != nil {
				fail(err)
				return pulled, firstErr
			}
			if err := f.pullOne(ctx, rem, st, e); err != nil {
				fail(fmt.Errorf("fleet: pulling %s from %s: %w", key, peer, err))
				continue
			}
			haveSet[key] = true
			have = append(have, key)
			pulled++
			f.replPulled.Inc()
		}
	}
	return pulled, firstErr
}

// pullOne fetches one owned signature from a peer by its content hash and
// files it in the local store under the peer's own key for it: the same
// machine fingerprint and collection options, so it answers exactly the
// requests it was collected for.
func (f *Fleet) pullOne(ctx context.Context, rem remote, st *tracex.SignatureStore, e wire.FleetSyncEntry) error {
	select {
	case f.sem <- struct{}{}:
		defer func() { <-f.sem }()
	case <-ctx.Done():
		return ctx.Err()
	}
	ctx, cancel := context.WithTimeout(ctx, f.fetchTimeout)
	defer cancel()
	stored, err := rem.GetSignature(ctx, e.Hash)
	if err != nil {
		return err
	}
	sig, err := validated(stored.Signature, e.App, e.Cores, e.Machine)
	if err != nil {
		return err
	}
	_, err = st.Put(sig, tracex.SignatureKey{App: e.App, Machine: e.Machine, MachineFP: e.MachineFP, Cores: e.Cores, Opt: e.Opt})
	return err
}

// manifestTriples lists the wire-level signature keys (app@cores@machine)
// the local store already resolves, as a slice for the sync request and a
// set for pull filtering. Reuse profiles are excluded: they are
// machine-independent and cheap to re-record relative to a signature.
func manifestTriples(st *tracex.SignatureStore) ([]string, map[string]bool) {
	set := map[string]bool{}
	var list []string
	for _, e := range st.Entries() {
		if e.Kind != store.KindSignature {
			continue
		}
		key := client.Key(e.App, e.Cores, e.Machine)
		if !set[key] {
			set[key] = true
			list = append(list, key)
		}
	}
	return list, set
}
