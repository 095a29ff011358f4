package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"

	"tracex/internal/store"
	"tracex/wire"
)

// This file implements the fleet coordination surface on a daemon
// configured with Config.Fleet:
//
//	GET  /v1/fleet/status — ring membership, per-peer health, replication
//	POST /v1/fleet/sync   — warm-start manifest diff
//
// Both answer 501 no_fleet on a single-node daemon (-peers unset), so a
// fleet-less deployment's wire surface is unchanged except for the two
// reserved paths. Neither route takes compute admission: status is a
// snapshot and sync is an index diff — cheap by construction, and a
// replicating peer must not queue behind multi-second collections.

// fleet returns the configured fleet or the errNoFleet failure.
func (s *Server) fleet() (Fleet, error) {
	if s.cfg.Fleet == nil {
		return nil, fmt.Errorf("server: %w: the daemon was started without -peers", errNoFleet)
	}
	return s.cfg.Fleet, nil
}

// fleetStatus implements GET /v1/fleet/status.
func (s *Server) fleetStatus(w http.ResponseWriter, r *http.Request) {
	flt, err := s.fleet()
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, flt.Status())
}

// fleetSync implements POST /v1/fleet/sync: given the signature keys the
// requester already has, answer with the store entries this node holds
// beyond them — the newest entry per (app, cores, machine) triple, reuse
// profiles excluded. The requester filters the response to the keys it
// owns and pulls each entry's content hash over GET /v1/signatures/{hash}.
func (s *Server) fleetSync(w http.ResponseWriter, r *http.Request) {
	if _, err := s.fleet(); err != nil {
		s.writeError(w, err)
		return
	}
	st, err := s.store()
	if err != nil {
		s.writeError(w, err)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.writeError(w, badRequestf("reading body: %v", err))
		return
	}
	var req wire.FleetSyncRequest
	if err := wire.DecodeStrict(bytes.NewReader(body), &req); err != nil {
		s.writeError(w, badRequestf("decoding fleet sync request: %v", err))
		return
	}
	have := make(map[string]bool, len(req.Have))
	for _, k := range req.Have {
		have[k] = true
	}
	// Newest entry per triple: the manifest can hold several generations
	// of one identity, but the sync vocabulary (like the GET triple form)
	// is "latest per identity".
	latest := map[string]store.Entry{}
	var order []string
	for _, e := range st.Entries() {
		if e.Kind != store.KindSignature {
			continue
		}
		key := tripleKey(e.App, e.Cores, e.Machine)
		if have[key] {
			continue
		}
		prev, seen := latest[key]
		if !seen {
			order = append(order, key)
		}
		if !seen || e.Unix >= prev.Unix {
			latest[key] = e
		}
	}
	resp := &wire.FleetSyncResponse{Entries: make([]wire.FleetSyncEntry, 0, len(order))}
	for _, key := range order {
		e := latest[key]
		resp.Entries = append(resp.Entries, wire.FleetSyncEntry{
			App:       e.App,
			Machine:   e.Machine,
			Cores:     e.Cores,
			MachineFP: e.MachineFP,
			Opt:       e.Opt,
			Hash:      e.Hash,
			Bytes:     e.Bytes,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// tripleKey renders the wire-level signature key (client.Key without the
// import).
func tripleKey(app string, cores int, machine string) string {
	return fmt.Sprintf("%s%s%d%s%s", app, storeKeySep, cores, storeKeySep, machine)
}

// redirectToOwner reports whether storeGet should answer 307 for a triple
// key this node does not own: redirect shard mode only, and only when the
// key is absent locally (a locally cached copy is always served — it is
// byte-identical to the owner's, signatures being content-addressed).
func (s *Server) redirectToOwner(w http.ResponseWriter, r *http.Request, key string) bool {
	flt := s.cfg.Fleet
	if flt == nil || flt.Mode() != wire.FleetModeRedirect {
		return false
	}
	owner := flt.Owner(key)
	if owner == "" || owner == flt.Self() {
		return false
	}
	http.Redirect(w, r, owner+wire.PathSignaturePrefix+key, http.StatusTemporaryRedirect)
	return true
}
