package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"tracex"
)

// This file classifies errors into the wire contract. The request and
// response bodies themselves live in the importable tracex/wire package
// (shared with the client, the CLI and the load generator); what stays
// here is the server-side mapping from pipeline and handler errors to the
// stable (status, code) pairs rendered as wire.ErrorBody.

// StatusClientClosedRequest reports a request abandoned by its client
// before a response was produced (nginx's conventional 499; there is no
// standard code).
const StatusClientClosedRequest = 499

// Server-side sentinels for request classification. Handlers wrap them so
// classify can map handler-level failures without string matching.
var (
	// errOverloaded reports admission-control rejection: no in-flight or
	// queue slot within the configured bounds. Mapped to 429.
	errOverloaded = errors.New("server overloaded")
	// errNotFound reports an unknown application, machine or route.
	errNotFound = errors.New("not found")
	// errBadRequest reports an unparseable or semantically invalid body.
	errBadRequest = errors.New("bad request")
	// errNoStore reports a store route on a daemon running without a
	// persistent store. Mapped to 501.
	errNoStore = errors.New("no signature store configured")
	// errNoFleet reports a fleet route on a daemon running without peers.
	// Mapped to 501.
	errNoFleet = errors.New("no fleet configured")
)

// badRequestf wraps a formatted message as a 400-classified error.
func badRequestf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errBadRequest, fmt.Sprintf(format, args...))
}

// notFoundf wraps a formatted message as a 404-classified error.
func notFoundf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errNotFound, fmt.Sprintf(format, args...))
}

// classify maps an error from the handler or pipeline to its HTTP status
// and stable error code. Every exported tracex sentinel has a fixed
// mapping, so library refactors cannot silently change the API contract.
func classify(err error) (status int, code string) {
	switch {
	case errors.Is(err, errOverloaded):
		return http.StatusTooManyRequests, "overloaded"
	case errors.Is(err, errNotFound):
		return http.StatusNotFound, "not_found"
	case errors.Is(err, errBadRequest):
		return http.StatusBadRequest, "bad_request"
	case errors.Is(err, errNoStore):
		return http.StatusNotImplemented, "no_store"
	case errors.Is(err, errNoFleet):
		return http.StatusNotImplemented, "no_fleet"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest, "client_closed_request"
	case errors.Is(err, tracex.ErrRankOutOfRange):
		return http.StatusBadRequest, "rank_out_of_range"
	case errors.Is(err, tracex.ErrCoresOutOfRange):
		return http.StatusBadRequest, "cores_out_of_range"
	case errors.Is(err, tracex.ErrMachineMismatch):
		return http.StatusConflict, "machine_mismatch"
	case errors.Is(err, tracex.ErrNoTraces):
		return http.StatusUnprocessableEntity, "no_traces"
	case errors.Is(err, tracex.ErrEmptyWorkload):
		return http.StatusUnprocessableEntity, "empty_workload"
	case errors.Is(err, tracex.ErrModelUnsupported):
		return http.StatusUnprocessableEntity, "model_unsupported"
	case errors.Is(err, tracex.ErrBadParallelism):
		return http.StatusInternalServerError, "bad_parallelism"
	default:
		return http.StatusInternalServerError, "internal"
	}
}
