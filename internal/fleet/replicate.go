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
// peer for the signatures it holds beyond this node's own (POST
// /v1/fleet/sync with the content hashes this node stores), keeps the
// entries whose keys the ring assigns to this node, and pulls each over
// the store read path into the local disk store, under the peer's full
// store key. Every identity of a triple (machine fingerprint and
// collection options) is its own entry, and an entry whose full store key
// this node already holds is not pulled again. A node that restarts with
// an empty disk — or joins a ring whose keys it now owns — thereby serves
// its share from disk instead of re-collecting.
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

	have, held := manifest(st)
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
			sk := storeKey(e)
			if held[sk] || !f.Owns(key) {
				continue
			}
			if err := ctx.Err(); err != nil {
				fail(err)
				return pulled, firstErr
			}
			hash, err := f.pullOne(ctx, rem, st, e)
			if err != nil {
				fail(fmt.Errorf("fleet: pulling %s from %s: %w", key, peer, err))
				continue
			}
			held[sk] = true
			have = append(have, hash)
			pulled++
			f.replPulled.Inc()
		}
	}
	return pulled, firstErr
}

// pullOne fetches one owned signature from a peer by its content hash and
// files it in the local store under the peer's own key for it: the same
// machine fingerprint and collection options, so it answers exactly the
// requests it was collected for. It returns the stored object's hash.
func (f *Fleet) pullOne(ctx context.Context, rem remote, st *tracex.SignatureStore, e wire.FleetSyncEntry) (string, error) {
	select {
	case f.sem <- struct{}{}:
		defer func() { <-f.sem }()
	case <-ctx.Done():
		return "", ctx.Err()
	}
	ctx, cancel := context.WithTimeout(ctx, fetchTimeout)
	defer cancel()
	stored, err := rem.GetSignature(ctx, e.Hash)
	if err != nil {
		return "", err
	}
	sig, err := validated(stored.Signature, e.App, e.Cores, e.Machine)
	if err != nil {
		return "", err
	}
	entry, err := st.Put(sig, storeKey(e))
	return entry.Hash, err
}

// storeKey is the full store key a sync entry was filed under.
func storeKey(e wire.FleetSyncEntry) tracex.SignatureKey {
	return tracex.SignatureKey{App: e.App, Machine: e.Machine, MachineFP: e.MachineFP, Cores: e.Cores, Opt: e.Opt}
}

// manifest lists the content hashes of the signatures the local store
// holds, for the sync request, and the set of their full store keys, for
// pull filtering. Reuse profiles are excluded: they are
// machine-independent and cheap to re-record relative to a signature.
func manifest(st *tracex.SignatureStore) ([]string, map[tracex.SignatureKey]bool) {
	held := map[tracex.SignatureKey]bool{}
	var hashes []string
	for _, e := range st.Entries() {
		if e.Kind != store.KindSignature {
			continue
		}
		held[tracex.SignatureKey{App: e.App, Machine: e.Machine, MachineFP: e.MachineFP, Cores: e.Cores, Opt: e.Opt}] = true
		hashes = append(hashes, e.Hash)
	}
	return hashes, held
}
