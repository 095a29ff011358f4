// Package wire defines tracexd's versioned HTTP API: the JSON request and
// response bodies of every /v1 route, the structured error body every
// failure path renders, and the canonical encoders and decoders for those
// types. It is the single definition of the wire contract, imported by the
// server (internal/server), the typed client (tracex/client), the tracex
// CLI's JSON output paths and the tracexload traffic generator — so the
// daemon, its clients and its load harness cannot drift apart.
//
// Wire types are distinct from the library types so the HTTP contract can
// stay stable while the library evolves; field order is fixed by struct
// declaration, which makes the encodings golden-file testable. The package
// version is carried in the route paths (Path* constants): a breaking
// change mints /v2 routes and new types rather than mutating these.
package wire

import (
	"encoding/json"
	"io"

	"tracex"
)

// Version is the API version every Path* constant belongs to.
const Version = "v1"

// Route paths of the versioned API. The server registers its handlers on
// these constants and clients address them, so a path typo cannot split the
// two sides.
const (
	PathPredict     = "/v1/predict"
	PathStudy       = "/v1/study"
	PathExtrapolate = "/v1/extrapolate"
	PathSignatures  = "/v1/signatures"
	// PathSignaturePrefix prefixes GET/PUT /v1/signatures/{key}; append the
	// store key (a 64-hex content hash or "app@cores@machine").
	PathSignaturePrefix = "/v1/signatures/"
	PathApps            = "/v1/apps"
	PathMachines        = "/v1/machines"
	// PathFleetStatus reports ring membership, per-peer health and
	// replication progress on a fleet-configured daemon.
	PathFleetStatus = "/v1/fleet/status"
	// PathFleetSync is the warm-start replication diff: the requester posts
	// the content hashes of the signatures it has and receives the entries
	// the responder holds beyond them.
	PathFleetSync = "/v1/fleet/sync"
	PathHealthz   = "/healthz"
	PathReadyz    = "/readyz"
	PathMetrics   = "/metrics"
)

// Fleet shard modes (FleetStatusResponse.Mode and the tracexd -shard-mode
// flag): how a node serves a signature key the consistent-hash ring
// assigns to a peer.
const (
	// FleetModeFetch: the non-owner delegates the collection to the owner
	// and fetches the result, serving it with provenance "peer".
	FleetModeFetch = "fetch"
	// FleetModeRedirect: like fetch on the predict path, but a signature
	// GET for a remote-owned, locally-missing key answers 307 to the
	// owner instead of proxying the bytes.
	FleetModeRedirect = "redirect"
)

// PredictRequest is the body of POST /v1/predict. Either an inline
// Signature or an (App, Cores, Machine) triple must be supplied; with the
// triple, the server collects the signature first (the engine memoizes it).
type PredictRequest struct {
	// App names the proxy application (see GET /v1/apps). Optional with an
	// inline signature, where it defaults to the signature's application.
	App string `json:"app,omitempty"`
	// Machine names the target system (see GET /v1/machines). Required
	// when collecting; ignored with an inline signature.
	Machine string `json:"machine,omitempty"`
	// Cores is the core count to collect at. Required without a signature.
	Cores int `json:"cores,omitempty"`
	// Model selects the cache model for collection: "exact" (default)
	// simulates the target hierarchy, "analytical" derives hit rates from a
	// machine-independent reuse-distance signature. Ignored with an inline
	// signature.
	Model string `json:"model,omitempty"`
	// Sampling selects the collection sampling policy ("fixed:400000",
	// "adaptive:0.05,pilot=20000,min=20000,max=400000,cluster=on"; empty =
	// server default). Ignored with an inline signature.
	Sampling string `json:"sampling,omitempty"`
	// Signature predicts from an already-collected (or extrapolated)
	// signature instead of collecting one.
	Signature *tracex.Signature `json:"signature,omitempty"`
	// Intervals asks for runtime prediction intervals (50%/90%/95%
	// bands). Tri-state: absent defers to the server's -intervals
	// default, true/false override it per request. Intervals require an
	// inline extrapolated signature carrying uncertainty (see
	// /v1/extrapolate with intervals); other predictions return none.
	Intervals *bool `json:"intervals,omitempty"`
}

// Bool returns a pointer to b: a literal for the tri-state request knobs
// (e.g. PredictRequest.Intervals).
func Bool(b bool) *bool { return &b }

// PredictResponse is the body of a successful POST /v1/predict. It has an
// allocation-free AppendJSON encoder because it is the serving hot path.
type PredictResponse struct {
	App            string  `json:"app"`
	Cores          int     `json:"cores"`
	Machine        string  `json:"machine"`
	RuntimeSeconds float64 `json:"runtime_seconds"`
	ComputeSeconds float64 `json:"compute_seconds"`
	CommSeconds    float64 `json:"comm_seconds"`
	MemSeconds     float64 `json:"mem_seconds"`
	FPSeconds      float64 `json:"fp_seconds"`
	// From reports where the signature came from: "inline" when the client
	// supplied it, otherwise the engine cache tier that satisfied the
	// collection ("memory", "disk", "peer", "collected" or "analytical").
	From string `json:"from,omitempty"`
	// Model echoes the cache model that produced the signature's hit rates
	// ("exact" or "analytical"; empty for inline signatures).
	Model string `json:"model,omitempty"`
	// Sampling echoes the normalized sampling policy the collection
	// actually ran with (e.g. "fixed:400000,warm=2000000"; empty for
	// inline signatures).
	Sampling string `json:"sampling,omitempty"`
	// Intervals are the runtime prediction intervals, ascending by level
	// (absent unless the request asked for intervals and the signature
	// carried extrapolation uncertainty).
	Intervals []tracex.Interval `json:"intervals,omitempty"`
}

// PredictionResponse converts a library prediction into its wire form.
// From and Model are left empty for the caller to fill (the server knows
// the provenance; the CLI's inline path does not).
func PredictionResponse(p *tracex.Prediction) *PredictResponse {
	return &PredictResponse{
		App:            p.App,
		Cores:          p.CoreCount,
		Machine:        p.Machine,
		RuntimeSeconds: p.Runtime,
		ComputeSeconds: p.ComputeSeconds,
		CommSeconds:    p.CommSeconds,
		MemSeconds:     p.MemSeconds,
		FPSeconds:      p.FPSeconds,
		Intervals:      p.Intervals,
	}
}

// StudyRequest is the body of POST /v1/study: the full
// collect → extrapolate → predict pipeline in one call.
type StudyRequest struct {
	App     string `json:"app"`
	Machine string `json:"machine"`
	// InputCounts are the small core counts to trace (the paper uses
	// three).
	InputCounts []int `json:"input_counts"`
	// TargetCores and TargetCounts name the extrapolation targets; the
	// study evaluates their sorted, deduplicated union.
	TargetCores  int   `json:"target_cores,omitempty"`
	TargetCounts []int `json:"target_counts,omitempty"`
	// Model selects the cache model for every collection in the study
	// ("exact" default, or "analytical").
	Model string `json:"model,omitempty"`
	// Sampling selects the sampling policy for every collection in the
	// study (empty = server default).
	Sampling string `json:"sampling,omitempty"`
	// ExtendedForms adds the power-law and quadratic forms to the fit.
	ExtendedForms bool `json:"extended_forms,omitempty"`
	// WithTruth additionally collects at each target count and predicts
	// from it (the paper's Table I baseline). Expensive at scale.
	WithTruth bool `json:"with_truth,omitempty"`
	// Intervals runs the extrapolation with posterior model averaging and
	// attaches runtime prediction intervals to each row. Tri-state:
	// absent defers to the server's -intervals default.
	Intervals *bool `json:"intervals,omitempty"`
}

// StudyResponse is the body of a successful POST /v1/study.
type StudyResponse struct {
	App         string            `json:"app"`
	Machine     string            `json:"machine"`
	InputCounts []int             `json:"input_counts"`
	Rows        []tracex.StudyRow `json:"rows"`
}

// ExtrapolateRequest is the body of POST /v1/extrapolate.
type ExtrapolateRequest struct {
	// Signatures are the input signatures (≥ 2, same app and machine,
	// distinct core counts).
	Signatures []*tracex.Signature `json:"signatures"`
	// TargetCores is the count to synthesize a signature for.
	TargetCores int `json:"target_cores"`
	// ExtendedForms adds the power-law and quadratic forms to the fit.
	ExtendedForms bool `json:"extended_forms,omitempty"`
	// Intervals extrapolates with posterior model averaging: the returned
	// signature carries per-element predictive variances ("uncertainty"),
	// which a later /v1/predict with intervals propagates into runtime
	// bands. Tri-state: absent defers to the server's -intervals default.
	Intervals *bool `json:"intervals,omitempty"`
}

// ExtrapolateResponse is the body of a successful POST /v1/extrapolate.
type ExtrapolateResponse struct {
	Signature     *tracex.Signature `json:"signature"`
	Fits          int               `json:"fits"`
	SkippedBlocks []uint64          `json:"skipped_blocks,omitempty"`
}

// SignatureRequest is the body of POST /v1/signatures: collect one
// application signature.
type SignatureRequest struct {
	App     string `json:"app"`
	Cores   int    `json:"cores"`
	Machine string `json:"machine"`
	// Model selects the cache model ("exact" default, or "analytical").
	Model string `json:"model,omitempty"`
	// Sampling selects the sampling policy (empty = server default). A
	// fleet peer delegating a collection forwards its normalized policy
	// here so the owner collects under the same identity.
	Sampling string `json:"sampling,omitempty"`
	// Delegated marks a collection forwarded by a fleet peer to this node
	// because the consistent-hash ring names it the key's owner. The server
	// answers it with a strictly local collection (memory→disk→collect,
	// never the peer tier), which breaks delegation cycles when two nodes
	// briefly disagree about ring membership during a peers reload.
	Delegated bool `json:"delegated,omitempty"`
}

// SignatureResponse is the body of a successful POST /v1/signatures.
type SignatureResponse struct {
	Ranks        int               `json:"ranks"`
	Blocks       int               `json:"blocks"`
	DominantRank int               `json:"dominant_rank"`
	Signature    *tracex.Signature `json:"signature"`
}

// StoredSignatureResponse is the body of a successful
// GET /v1/signatures/{key}.
type StoredSignatureResponse struct {
	App     string `json:"app"`
	Machine string `json:"machine"`
	Cores   int    `json:"cores"`
	// Hash is the object's hex SHA-256 content hash.
	Hash string `json:"hash"`
	// Bytes and Unix carry the manifest entry's metadata when the object
	// is still referenced (zero for an unreferenced hash fetch).
	Bytes     int64             `json:"bytes,omitempty"`
	Unix      int64             `json:"unix,omitempty"`
	Signature *tracex.Signature `json:"signature"`
}

// StorePutResponse is the body of a successful PUT /v1/signatures/{key}.
type StorePutResponse struct {
	App     string `json:"app"`
	Machine string `json:"machine"`
	Cores   int    `json:"cores"`
	Hash    string `json:"hash"`
	Bytes   int64  `json:"bytes"`
}

// FleetStatusResponse is the body of GET /v1/fleet/status on a daemon
// running with a peer fleet: the consistent-hash ring membership, this
// node's share of the key space, per-peer health and warm-start
// replication progress.
type FleetStatusResponse struct {
	// Self is this node's advertised base URL (its ring identity).
	Self string `json:"self"`
	// Mode is the shard mode: "fetch" (non-owners delegate collection to
	// the owner and fetch the result) or "redirect" (signature GETs for
	// remote keys answer 307 to the owner).
	Mode string `json:"mode"`
	// OwnedShare estimates the fraction of the key space this node owns
	// under the current ring (1/len(peers) when balanced).
	OwnedShare float64 `json:"owned_share"`
	// Peers lists every ring member, self included, with health detail.
	Peers []FleetPeerStatus `json:"peers"`
	// Replication reports the startup warm-start pull.
	Replication FleetReplication `json:"replication"`
}

// FleetPeerStatus is one ring member's health as seen from this node.
type FleetPeerStatus struct {
	// URL is the peer's base URL (its ring identity).
	URL string `json:"url"`
	// Self marks this node's own entry (health fields are zero: a node
	// does not dial itself).
	Self bool `json:"self,omitempty"`
	// Healthy is false while the peer is in probation: consecutive
	// failures tripped the breaker and fetches are skipped until the
	// capped, jittered backoff expires.
	Healthy bool `json:"healthy"`
	// ErrorRate is the EWMA of fetch failures in [0, 1] (0 before any
	// fetch).
	ErrorRate float64 `json:"error_rate"`
	// Fetches, Hits and Errors count this node's requests to the peer.
	Fetches uint64 `json:"fetches"`
	Hits    uint64 `json:"hits"`
	Errors  uint64 `json:"errors"`
	// Probations counts how many times the peer entered probation.
	Probations uint64 `json:"probations"`
}

// FleetReplication is the warm-start replication progress of
// FleetStatusResponse.
type FleetReplication struct {
	// Done flips true when the startup pull has visited every peer.
	Done bool `json:"done"`
	// Pulled counts signatures copied into the local store; Errors counts
	// failed pulls (the replicator continues past them).
	Pulled uint64 `json:"pulled"`
	Errors uint64 `json:"errors"`
}

// FleetSyncRequest is the body of POST /v1/fleet/sync: the content hashes
// of the signatures the requester already stores. (Nodes built before
// replication went per identity sent "app@cores@machine" triple keys
// here; those match no hash, so such a requester is offered every entry.)
type FleetSyncRequest struct {
	Have []string `json:"have,omitempty"`
}

// FleetSyncEntry is one store manifest entry the responder holds and the
// requester does not.
type FleetSyncEntry struct {
	App     string `json:"app"`
	Machine string `json:"machine"`
	Cores   int    `json:"cores"`
	// MachineFP and Opt complete the entry's store key (the machine
	// configuration and collection options it was filed under), so the
	// requester files the pulled signature under the same identity.
	MachineFP string `json:"machine_fp,omitempty"`
	Opt       string `json:"opt,omitempty"`
	// Hash is the object's hex SHA-256 content hash; Bytes its encoded
	// size.
	Hash  string `json:"hash"`
	Bytes int64  `json:"bytes"`
}

// FleetSyncResponse is the body of a successful POST /v1/fleet/sync.
type FleetSyncResponse struct {
	Entries []FleetSyncEntry `json:"entries"`
}

// AppsResponse is the body of GET /v1/apps.
type AppsResponse struct {
	Apps []string `json:"apps"`
}

// MachinesResponse is the body of GET /v1/machines.
type MachinesResponse struct {
	Machines []string `json:"machines"`
}

// HealthResponse is the body of GET /healthz and GET /readyz ("ok",
// "ready" or "draining").
type HealthResponse struct {
	Status string `json:"status"`
}

// ErrorBody is the JSON rendering of every failed request. Codes are
// stable API: clients branch on Code, not Message.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries one error's machine-readable classification and
// human-readable context.
type ErrorDetail struct {
	// Code is the stable, snake_case error class (the server's classify
	// mapping; see tracex/client for the sentinel each code resolves to).
	Code string `json:"code"`
	// Message is the underlying error text.
	Message string `json:"message"`
	// Status mirrors the HTTP status code for clients that only see the
	// body.
	Status int `json:"status"`
	// RetryAfterSeconds accompanies 429 responses (it mirrors the
	// Retry-After header). The value is jittered per response so a burst of
	// rejected clients does not retry in lockstep.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// DecodeStrict decodes one JSON value from r, rejecting unknown fields.
// It is the canonical request decoder: the server and the load harness both
// use it, so a body the harness generates is exactly a body the server
// accepts.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
