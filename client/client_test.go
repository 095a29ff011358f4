package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"tracex"
	"tracex/internal/server"
	"tracex/wire"
)

var bg = context.Background()

// errorServer answers every request with one structured wire error.
func errorServer(status int, code, msg string, retryAfter int) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(&wire.ErrorBody{Error: wire.ErrorDetail{
			Code: code, Message: msg, Status: status, RetryAfterSeconds: retryAfter,
		}})
	}))
}

func TestErrorMapping(t *testing.T) {
	cases := []struct {
		status   int
		code     string
		sentinel error
	}{
		{http.StatusTooManyRequests, "overloaded", ErrOverloaded},
		{http.StatusNotFound, "not_found", ErrNotFound},
		{http.StatusBadRequest, "bad_request", ErrBadRequest},
		{http.StatusNotImplemented, "no_store", ErrNoStore},
	}
	for _, c := range cases {
		ts := errorServer(c.status, c.code, "synthetic", 0)
		_, err := New(ts.URL).Apps(bg)
		ts.Close()
		if !errors.Is(err, c.sentinel) {
			t.Errorf("status %d: errors.Is(%v, %v) = false", c.status, err, c.sentinel)
		}
		var apiErr *APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("status %d: %T is not an *APIError", c.status, err)
		}
		if apiErr.Status != c.status || apiErr.Code != c.code || apiErr.Message != "synthetic" {
			t.Errorf("status %d: decoded %+v", c.status, apiErr)
		}
	}
}

// TestErrorFallback covers a non-wire error body (a proxy answered): the
// status still maps to the sentinel and the raw text is preserved.
func TestErrorFallback(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "plain text 404", http.StatusNotFound)
	}))
	defer ts.Close()
	_, err := New(ts.URL).Apps(bg)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("plain-text 404 did not map to ErrNotFound: %v", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "" || apiErr.Message != "plain text 404" {
		t.Errorf("fallback decode: %+v", apiErr)
	}
}

// TestRetryAfterHeaderOnly covers a 429 carrying only the header (no JSON
// body): RetryAfter still populates.
func TestRetryAfterHeaderOnly(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()
	_, err := New(ts.URL).Apps(bg)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.RetryAfter != 7*time.Second {
		t.Fatalf("RetryAfter from header = %v, want 7s (err %v)", apiErr, err)
	}
}

// TestNoRetryByDefault pins that a default client surfaces the first 429
// without sleeping: load generators must observe every rejection.
func TestNoRetryByDefault(t *testing.T) {
	var hits atomic.Int64
	ts := errorServerCounting(&hits, 1<<30, 2)
	defer ts.Close()
	c := New(ts.URL)
	c.sleep = func(context.Context, time.Duration) error {
		t.Error("default client slept for a retry")
		return nil
	}
	if _, err := c.Apps(bg); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if hits.Load() != 1 {
		t.Errorf("server saw %d requests, want 1", hits.Load())
	}
}

// errorServerCounting 429s the first reject requests (with the given
// Retry-After) and then serves an empty AppsResponse.
func errorServerCounting(hits *atomic.Int64, reject int64, retryAfter int) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= reject {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(&wire.ErrorBody{Error: wire.ErrorDetail{
				Code: "overloaded", Message: "synthetic", Status: 429, RetryAfterSeconds: retryAfter,
			}})
			return
		}
		_ = json.NewEncoder(w).Encode(&wire.AppsResponse{Apps: []string{"stencil3d"}})
	}))
}

// TestRetryHonorsRetryAfter drives two 429s then success, with the sleep
// recorded: each wait is raised to the server's Retry-After.
func TestRetryHonorsRetryAfter(t *testing.T) {
	var hits atomic.Int64
	ts := errorServerCounting(&hits, 2, 2)
	defer ts.Close()
	c := New(ts.URL, WithRetries(3))
	var slept []time.Duration
	c.sleep = func(_ context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	apps, err := c.Apps(bg)
	if err != nil {
		t.Fatalf("Apps after retries: %v", err)
	}
	if len(apps) != 1 || hits.Load() != 3 {
		t.Errorf("apps %v after %d requests, want 1 app after 3", apps, hits.Load())
	}
	want := []time.Duration{2 * time.Second, 2 * time.Second}
	if len(slept) != len(want) || slept[0] != want[0] || slept[1] != want[1] {
		t.Errorf("sleep schedule %v, want %v (Retry-After dominates the 100ms base)", slept, want)
	}
}

// TestRetryUnavailable drives two 503s then success: WithRetries honors
// 503 + Retry-After with the same capped backoff as 429.
func TestRetryUnavailable(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.Header().Set("Retry-After", "2")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(&wire.ErrorBody{Error: wire.ErrorDetail{
				Code: "unavailable", Message: "synthetic", Status: 503, RetryAfterSeconds: 2,
			}})
			return
		}
		_ = json.NewEncoder(w).Encode(&wire.AppsResponse{Apps: []string{"stencil3d"}})
	}))
	defer ts.Close()
	c := New(ts.URL, WithRetries(3))
	var slept []time.Duration
	c.sleep = func(_ context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	apps, err := c.Apps(bg)
	if err != nil {
		t.Fatalf("Apps after 503 retries: %v", err)
	}
	if len(apps) != 1 || hits.Load() != 3 {
		t.Errorf("apps %v after %d requests, want 1 app after 3", apps, hits.Load())
	}
	want := []time.Duration{2 * time.Second, 2 * time.Second}
	if len(slept) != len(want) || slept[0] != want[0] || slept[1] != want[1] {
		t.Errorf("sleep schedule %v, want %v", slept, want)
	}
}

// TestUnavailableSentinel pins the 503 → ErrUnavailable mapping.
func TestUnavailableSentinel(t *testing.T) {
	ts := errorServer(http.StatusServiceUnavailable, "unavailable", "synthetic", 1)
	defer ts.Close()
	_, err := New(ts.URL).Apps(bg)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("503: errors.Is(%v, ErrUnavailable) = false", err)
	}
	if errors.Is(err, ErrOverloaded) {
		t.Errorf("503 must not map to ErrOverloaded: %v", err)
	}
}

// TestRetrySkipsDeterministicErrors pins that only 429 retries: a 400 with
// retries enabled fails immediately.
func TestRetrySkipsDeterministicErrors(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		_ = json.NewEncoder(w).Encode(&wire.ErrorBody{Error: wire.ErrorDetail{Code: "bad_request", Status: 400}})
	}))
	defer ts.Close()
	if _, err := New(ts.URL, WithRetries(5)).Apps(bg); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("err = %v, want ErrBadRequest", err)
	}
	if hits.Load() != 1 {
		t.Errorf("400 was retried: %d requests", hits.Load())
	}
}

// TestBackoffSchedule pins the pure backoff computation: exponential
// doubling from the base, raised by Retry-After, capped at the max.
func TestBackoffSchedule(t *testing.T) {
	c := New("http://x", WithBackoff(100*time.Millisecond, 1*time.Second))
	cases := []struct {
		attempt    int
		retryAfter time.Duration
		want       time.Duration
	}{
		{0, 0, 100 * time.Millisecond},
		{1, 0, 200 * time.Millisecond},
		{2, 0, 400 * time.Millisecond},
		{4, 0, 1 * time.Second},                             // capped
		{70, 0, 1 * time.Second},                            // shift overflow guard
		{0, 500 * time.Millisecond, 500 * time.Millisecond}, // Retry-After raises
		{3, 500 * time.Millisecond, 800 * time.Millisecond}, // ...but never lowers
		{0, 30 * time.Second, 1 * time.Second},              // cap beats Retry-After
	}
	for _, tc := range cases {
		if got := c.backoff(tc.attempt, tc.retryAfter); got != tc.want {
			t.Errorf("backoff(%d, %v) = %v, want %v", tc.attempt, tc.retryAfter, got, tc.want)
		}
	}
}

// TestContextBoundsRetries pins that the context deadline covers backoff
// sleeps: a hopeless retry loop exits with the context's error.
func TestContextBoundsRetries(t *testing.T) {
	var hits atomic.Int64
	ts := errorServerCounting(&hits, 1<<30, 10)
	defer ts.Close()
	ctx, cancel := context.WithTimeout(bg, 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := New(ts.URL, WithRetries(100)).Apps(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("retry loop ignored the context for %v", elapsed)
	}
}

// TestAgainstServer exercises the client end-to-end against a real tracexd
// server: catalog routes, collect, store round-trip and predict all speak
// the shared wire types.
func TestAgainstServer(t *testing.T) {
	if testing.Short() {
		t.Skip("real collection in -short mode")
	}
	eng := tracex.NewEngine(tracex.WithStore(t.TempDir()))
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(bg, 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	c := New("http://" + addr.String())

	apps, err := c.Apps(bg)
	if err != nil {
		t.Fatal(err)
	}
	machines, err := c.Machines(bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) == 0 || len(machines) == 0 {
		t.Fatalf("empty catalog: apps %v machines %v", apps, machines)
	}
	if status, err := c.Ready(bg); err != nil || status != "ready" {
		t.Fatalf("Ready = %q, %v", status, err)
	}

	// Collect a real signature through the API, then round-trip it through
	// the store.
	coll, err := c.Collect(bg, &wire.SignatureRequest{
		App: "stencil3d", Cores: 64, Machine: "bluewaters", Sampling: "fixed:20000",
	})
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if coll.Signature == nil || coll.Blocks == 0 {
		t.Fatalf("Collect returned %+v", coll)
	}
	key := Key("stencil3d", 64, "bluewaters")
	put, err := c.PutSignature(bg, key, coll.Signature)
	if err != nil {
		t.Fatalf("PutSignature: %v", err)
	}
	got, err := c.GetSignature(bg, key)
	if err != nil {
		t.Fatalf("GetSignature(%s): %v", key, err)
	}
	if got.Hash != put.Hash || got.App != "stencil3d" || got.Cores != 64 {
		t.Errorf("store round-trip: put %+v, got %+v", put, got)
	}
	byHash, err := c.GetSignature(bg, put.Hash)
	if err != nil {
		t.Fatalf("GetSignature(%s): %v", put.Hash, err)
	}
	if byHash.Signature == nil || byHash.Signature.CoreCount != 64 {
		t.Errorf("hash fetch: %+v", byHash)
	}
	if _, err := c.GetSignature(bg, Key("nope", 64, "bluewaters")); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing key: %v, want ErrNotFound", err)
	}
	if ok, err := c.SignatureExists(bg, key); err != nil || !ok {
		t.Errorf("SignatureExists(%s) = %v, %v, want true", key, ok, err)
	}
	if ok, err := c.SignatureExists(bg, Key("nope", 64, "bluewaters")); err != nil || ok {
		t.Errorf("SignatureExists(missing) = %v, %v, want false, nil", ok, err)
	}

	// Predict from the collected signature.
	pred, err := c.Predict(bg, &wire.PredictRequest{Signature: coll.Signature})
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if pred.RuntimeSeconds <= 0 || pred.From != "inline" {
		t.Errorf("Predict = %+v", pred)
	}

	// Interval round-trip: extrapolate with the tri-state knob on, then
	// predict from the uncertainty-carrying signature. The knob and the
	// interval fields cross the wire through the typed client structs.
	sigs := []*tracex.Signature{coll.Signature}
	for _, cores := range []int{16, 32} {
		r, err := c.Collect(bg, &wire.SignatureRequest{
			App: "stencil3d", Cores: cores, Machine: "bluewaters", Sampling: "fixed:20000",
		})
		if err != nil {
			t.Fatalf("Collect(%d): %v", cores, err)
		}
		sigs = append(sigs, r.Signature)
	}
	ex, err := c.Extrapolate(bg, &wire.ExtrapolateRequest{
		Signatures: sigs, TargetCores: 128, Intervals: wire.Bool(true),
	})
	if err != nil {
		t.Fatalf("Extrapolate: %v", err)
	}
	if ex.Signature == nil || ex.Signature.Uncertainty == nil {
		t.Fatalf("extrapolated signature carries no uncertainty: %+v", ex)
	}
	ip, err := c.Predict(bg, &wire.PredictRequest{Signature: ex.Signature, Intervals: wire.Bool(true)})
	if err != nil {
		t.Fatalf("Predict(intervals): %v", err)
	}
	if len(ip.Intervals) == 0 {
		t.Fatal("Predict with intervals=true returned no intervals")
	}
	for _, iv := range ip.Intervals {
		if !(iv.Lo <= ip.RuntimeSeconds && ip.RuntimeSeconds <= iv.Hi) {
			t.Errorf("interval %+v does not bracket runtime %.3f", iv, ip.RuntimeSeconds)
		}
	}
	// Absent knob defers to the server default (off here): no intervals.
	np, err := c.Predict(bg, &wire.PredictRequest{Signature: ex.Signature})
	if err != nil {
		t.Fatalf("Predict(default): %v", err)
	}
	if len(np.Intervals) != 0 {
		t.Errorf("default predict carried intervals: %+v", np.Intervals)
	}

	// Sampling policy round-trip: an adaptive collection succeeds, its
	// signature carries per-element measurement uncertainty, and a predict
	// under the same policy echoes the normalized policy string — the
	// response must report what the collection actually ran with, not what
	// the request literally said.
	const adaptivePolicy = "adaptive:0.1,pilot=5000,min=5000,max=50000"
	asr, err := c.Collect(bg, &wire.SignatureRequest{
		App: "stencil3d", Cores: 64, Machine: "bluewaters", Sampling: adaptivePolicy,
	})
	if err != nil {
		t.Fatalf("Collect(adaptive): %v", err)
	}
	if asr.Signature == nil || asr.Signature.Uncertainty == nil {
		t.Fatalf("adaptive collection carries no uncertainty: %+v", asr)
	}
	ap, err := c.Predict(bg, &wire.PredictRequest{
		App: "stencil3d", Cores: 64, Machine: "bluewaters", Sampling: adaptivePolicy,
	})
	if err != nil {
		t.Fatalf("Predict(adaptive): %v", err)
	}
	if want := adaptivePolicy + ",cluster=on"; ap.Sampling != want {
		t.Errorf("Predict echoed sampling %q, want %q", ap.Sampling, want)
	}
	// A malformed policy maps to the 400 sentinel.
	if _, err := c.Collect(bg, &wire.SignatureRequest{
		App: "stencil3d", Cores: 64, Machine: "bluewaters", Sampling: "adaptive:nope",
	}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("malformed sampling: %v, want ErrBadRequest", err)
	}
}

// TestNoStoreSentinel checks the 501 mapping against a storeless daemon.
func TestNoStoreSentinel(t *testing.T) {
	s, err := server.New(server.Config{Engine: tracex.NewEngine()})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(bg, 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	c := New("http://" + addr.String())
	if _, err := c.GetSignature(bg, Key("stencil3d", 64, "bluewaters")); !errors.Is(err, ErrNoStore) {
		t.Fatalf("storeless GET: %v, want ErrNoStore", err)
	}
	// SignatureExists propagates non-404 errors instead of reporting "absent".
	if _, err := c.SignatureExists(bg, Key("stencil3d", 64, "bluewaters")); !errors.Is(err, ErrNoStore) {
		t.Fatalf("storeless HEAD: %v, want ErrNoStore", err)
	}
}
