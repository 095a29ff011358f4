package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tracex"
	"tracex/wire"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testSampleRefs keeps real-engine collections fast in tests.
const testSampleRefs = 20_000

// sharedEng backs the tests that exercise the real pipeline; sharing it
// lets the engine's caches carry collections across tests. Tests that
// assert exact engine counter values build their own engine instead.
var sharedEng = tracex.NewEngine()

// newTestServer starts a server on a loopback port and registers a
// drained shutdown for cleanup.
func newTestServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, "http://" + addr.String()
}

// post sends a JSON body and returns the response with its body read.
// Test-goroutine only (it can Fatal); concurrent senders use postStatus.
func post(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// postStatus is post's goroutine-safe sibling: it reports transport
// failures as status 0 instead of failing the test.
func postStatus(url, body string) int {
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// get fetches a URL and returns the response with its body read.
func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// waitFor polls cond for up to d.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", msg)
}

// inlineSig builds a minimal valid signature for shim-backed tests that
// never reach a real simulation.
func inlineSig(cores int) *tracex.Signature {
	return &tracex.Signature{
		App: "stencil3d", CoreCount: cores, Machine: "bluewaters",
		Traces: []tracex.Trace{{
			App: "stencil3d", CoreCount: cores, Rank: 0, Machine: "bluewaters", Levels: 3,
		}},
	}
}

// inlinePredictBody is the wire body predicting from inlineSig(cores).
func inlinePredictBody(t *testing.T, cores int) string {
	t.Helper()
	b, err := json.Marshal(&wire.PredictRequest{Signature: inlineSig(cores)})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// shimEngine wraps a real engine, interposing Predict when predict is
// set. It lets the tests hold requests in flight deterministically.
type shimEngine struct {
	Engine
	predict func(ctx context.Context, req tracex.PredictRequest) (*tracex.Prediction, error)
}

func (s *shimEngine) Predict(ctx context.Context, req tracex.PredictRequest) (*tracex.Prediction, error) {
	if s.predict != nil {
		return s.predict(ctx, req)
	}
	return s.Engine.Predict(ctx, req)
}

// blockingPredict is a Predict implementation that parks every call until
// release is closed (or its context ends), reporting entries on started.
// With a delegate, released calls complete through the real engine;
// without one they return a synthetic prediction.
type blockingPredict struct {
	started  chan struct{}
	release  chan struct{}
	cancels  chan error
	calls    atomic.Int64
	delegate Engine
}

func newBlockingPredict() *blockingPredict {
	return &blockingPredict{
		started: make(chan struct{}, 64),
		release: make(chan struct{}),
		cancels: make(chan error, 64),
	}
}

func (b *blockingPredict) fn(ctx context.Context, req tracex.PredictRequest) (*tracex.Prediction, error) {
	b.calls.Add(1)
	b.started <- struct{}{}
	select {
	case <-b.release:
		if b.delegate != nil {
			return b.delegate.Predict(ctx, req)
		}
		return &tracex.Prediction{
			App: req.Signature.App, CoreCount: req.Signature.CoreCount,
			Machine: req.Signature.Machine, Runtime: 1.5,
		}, nil
	case <-ctx.Done():
		b.cancels <- ctx.Err()
		return nil, ctx.Err()
	}
}

func TestBasicRoutes(t *testing.T) {
	eng := tracex.NewEngine()
	_, base := newTestServer(t, Config{Engine: eng})

	resp, body := get(t, base+"/healthz")
	if resp.StatusCode != 200 || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Errorf("healthz: %d %s", resp.StatusCode, body)
	}
	resp, body = get(t, base+"/readyz")
	if resp.StatusCode != 200 || !bytes.Contains(body, []byte(`"ready"`)) {
		t.Errorf("readyz: %d %s", resp.StatusCode, body)
	}
	resp, body = get(t, base+"/v1/apps")
	if resp.StatusCode != 200 || !bytes.Contains(body, []byte(`"stencil3d"`)) {
		t.Errorf("apps: %d %s", resp.StatusCode, body)
	}
	resp, body = get(t, base+"/v1/machines")
	if resp.StatusCode != 200 || !bytes.Contains(body, []byte(`"bluewaters"`)) {
		t.Errorf("machines: %d %s", resp.StatusCode, body)
	}
	// The metrics snapshot answers /metrics and the legacy root path.
	for _, path := range []string{"/metrics", "/"} {
		resp, body = get(t, base+path)
		if resp.StatusCode != 200 || !bytes.Contains(body, []byte(`server.requests`)) {
			t.Errorf("%s: %d %.200s", path, resp.StatusCode, body)
		}
	}
	// Unknown routes produce the structured error body.
	resp, body = get(t, base+"/v1/nope")
	var eb wire.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("404 body not structured: %s", body)
	}
	if resp.StatusCode != 404 || eb.Error.Code != "not_found" || eb.Error.Status != 404 {
		t.Errorf("unknown route: %d %+v", resp.StatusCode, eb)
	}
}

func TestRequestValidation(t *testing.T) {
	eng := tracex.NewEngine()
	_, base := newTestServer(t, Config{Engine: eng})

	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"malformed JSON", `{"app":`, 400, "bad_request"},
		{"unknown field", `{"app":"stencil3d","coresx":64}`, 400, "bad_request"},
		{"no cores", `{"app":"stencil3d","machine":"bluewaters"}`, 400, "bad_request"},
		{"unknown app", `{"app":"nosuch","cores":64,"machine":"bluewaters"}`, 404, "not_found"},
		{"unknown machine", `{"app":"stencil3d","cores":64,"machine":"nosuch"}`, 404, "not_found"},
	}
	for _, c := range cases {
		resp, body := post(t, base+"/v1/predict", c.body)
		var eb wire.ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Fatalf("%s: unstructured error body %s", c.name, body)
		}
		if resp.StatusCode != c.status || eb.Error.Code != c.code {
			t.Errorf("%s: got %d/%s, want %d/%s", c.name, resp.StatusCode, eb.Error.Code, c.status, c.code)
		}
	}

	// "sampling" is the only way to state a collection budget: the retired
	// "sample_refs" knob is an unknown field on every collecting route.
	for _, path := range []string{"/v1/predict", "/v1/study", "/v1/signatures"} {
		resp, body := post(t, base+path, `{"app":"stencil3d","cores":64,"machine":"bluewaters","sample_refs":20000}`)
		var eb wire.ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Fatalf("%s sample_refs: unstructured error body %s", path, body)
		}
		if resp.StatusCode != 400 || eb.Error.Code != "bad_request" {
			t.Errorf("%s sample_refs: got %d/%s, want 400/bad_request", path, resp.StatusCode, eb.Error.Code)
		}
	}

	// A NaN error target parses as a float but targets nothing: it is a 400
	// on every collecting route, not a collection whose policy, and so
	// whose memo key, equals nothing, not even itself.
	const nanSampling = `"sampling":"adaptive:NaN,pilot=1000,min=1000,max=1000"`
	for path, req := range map[string]string{
		"/v1/predict":    `{"app":"stencil3d","cores":8,"machine":"bluewaters",` + nanSampling + `}`,
		"/v1/signatures": `{"app":"stencil3d","cores":8,"machine":"bluewaters",` + nanSampling + `}`,
		"/v1/study":      `{"app":"stencil3d","machine":"bluewaters","input_counts":[8,16,32],"target_cores":64,` + nanSampling + `}`,
	} {
		resp, body := post(t, base+path, req)
		var eb wire.ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Fatalf("%s NaN sampling: unstructured error body %s", path, body)
		}
		if resp.StatusCode != 400 || eb.Error.Code != "bad_request" {
			t.Errorf("%s NaN sampling: got %d/%s, want 400/bad_request", path, resp.StatusCode, eb.Error.Code)
		}
	}

	// Sentinel mapping: an inline signature with no traces → no_traces.
	resp, body := post(t, base+"/v1/predict",
		`{"signature":{"app":"stencil3d","core_count":4,"machine":"bluewaters","traces":[]}}`)
	var eb wire.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 422 || eb.Error.Code != "no_traces" {
		t.Errorf("no-traces signature: %d %+v", resp.StatusCode, eb.Error)
	}
}

// TestPipelineRoutes drives signatures → extrapolate → predict over the
// wire against a real engine.
func TestPipelineRoutes(t *testing.T) {
	if testing.Short() {
		t.Skip("real collections in -short mode")
	}
	_, base := newTestServer(t, Config{Engine: sharedEng})

	var sigs []*tracex.Signature
	for _, cores := range []int{64, 128, 256} {
		resp, body := post(t, base+"/v1/signatures", fmt.Sprintf(
			`{"app":"stencil3d","cores":%d,"machine":"bluewaters","sampling":"fixed:%d"}`, cores, testSampleRefs))
		if resp.StatusCode != 200 {
			t.Fatalf("signatures@%d: %d %.300s", cores, resp.StatusCode, body)
		}
		var sr wire.SignatureResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Signature == nil || sr.Ranks == 0 || sr.Blocks == 0 {
			t.Fatalf("signatures@%d: empty response %.300s", cores, body)
		}
		sigs = append(sigs, sr.Signature)
	}

	ereq, err := json.Marshal(&wire.ExtrapolateRequest{Signatures: sigs, TargetCores: 512})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, base+"/v1/extrapolate", string(ereq))
	if resp.StatusCode != 200 {
		t.Fatalf("extrapolate: %d %.300s", resp.StatusCode, body)
	}
	var er wire.ExtrapolateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Signature == nil || er.Signature.CoreCount != 512 || er.Fits == 0 {
		t.Fatalf("extrapolate response: %.300s", body)
	}

	preq, err := json.Marshal(&wire.PredictRequest{Signature: er.Signature})
	if err != nil {
		t.Fatal(err)
	}
	resp, body = post(t, base+"/v1/predict", string(preq))
	if resp.StatusCode != 200 {
		t.Fatalf("predict: %d %.300s", resp.StatusCode, body)
	}
	var pr wire.PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Cores != 512 || pr.RuntimeSeconds <= 0 {
		t.Errorf("predict response: %+v", pr)
	}
}

// TestStudyRoute runs the full pipeline through POST /v1/study.
func TestStudyRoute(t *testing.T) {
	if testing.Short() {
		t.Skip("study in -short mode")
	}
	_, base := newTestServer(t, Config{Engine: sharedEng})
	resp, body := post(t, base+"/v1/study", fmt.Sprintf(
		`{"app":"stencil3d","machine":"bluewaters","input_counts":[64,128,256],"target_cores":512,"sampling":"fixed:%d"}`,
		testSampleRefs))
	if resp.StatusCode != 200 {
		t.Fatalf("study: %d %.300s", resp.StatusCode, body)
	}
	var sr wire.StudyResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Rows) != 1 || sr.Rows[0].TargetCores != 512 || sr.Rows[0].PredictedSeconds <= 0 {
		t.Errorf("study rows: %+v", sr.Rows)
	}
}

// TestCoalescing is the tentpole acceptance test: N concurrent identical
// /v1/predict requests perform exactly one Engine computation, asserted
// three ways — the shim's call count, the server.coalesced counter, and
// the engine's own prediction/collection counters.
func TestCoalescing(t *testing.T) {
	if testing.Short() {
		t.Skip("real collection in -short mode")
	}
	const n = 8
	real := tracex.NewEngine()
	app, err := tracex.LoadApp("stencil3d")
	if err != nil {
		t.Fatal(err)
	}
	machine, err := tracex.LoadMachine("bluewaters")
	if err != nil {
		t.Fatal(err)
	}
	sig, err := real.CollectSignature(context.Background(), app, 64, machine,
		tracex.CollectOptions{Sampling: tracex.FixedSampling(testSampleRefs, 0)})
	if err != nil {
		t.Fatal(err)
	}
	reqBody, err := json.Marshal(&wire.PredictRequest{Signature: sig})
	if err != nil {
		t.Fatal(err)
	}

	bp := newBlockingPredict()
	bp.delegate = real // released calls run the real prediction
	shim := &shimEngine{Engine: real, predict: bp.fn}
	_, base := newTestServer(t, Config{Engine: shim, MaxInFlight: 2, MaxQueue: 2})

	var wg sync.WaitGroup
	type result struct {
		status    int
		coalesced bool
		body      string
	}
	results := make([]result, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(base+"/v1/predict", "application/json", bytes.NewReader(reqBody))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			results[i] = result{
				status:    resp.StatusCode,
				coalesced: resp.Header.Get("Tracex-Coalesced") == "true",
				body:      string(b),
			}
		}(i)
	}
	// The leader is parked inside Predict. Wait until the server has seen
	// all n requests, give the followers a beat to join the flight, then
	// let the computation finish.
	<-bp.started
	waitFor(t, 10*time.Second, func() bool {
		return real.Registry().Counter("server.requests.predict").Value() == n
	}, "all requests to arrive")
	time.Sleep(200 * time.Millisecond)
	close(bp.release)
	wg.Wait()

	if calls := bp.calls.Load(); calls != 1 {
		t.Errorf("%d engine computations for %d identical requests, want exactly 1", calls, n)
	}
	var joined int
	for i, r := range results {
		if r.status != 200 {
			t.Errorf("request %d: status %d body %.200s", i, r.status, r.body)
		}
		if r.body != results[0].body {
			t.Errorf("request %d: body diverges from leader's", i)
		}
		if r.coalesced {
			joined++
		}
	}
	if joined != n-1 {
		t.Errorf("%d responses marked coalesced, want %d", joined, n-1)
	}
	if got := real.Registry().Counter("server.coalesced").Value(); got != n-1 {
		t.Errorf("server.coalesced = %d, want %d", got, n-1)
	}
	// The engine ran one prediction for the whole burst, over the one
	// signature collected during setup.
	if st := real.Stats(); st.Predictions != 1 || st.Collections != 1 {
		t.Errorf("engine ran %d predictions over %d collections, want 1 and 1", st.Predictions, st.Collections)
	}
}

// TestAdmissionControl verifies the bounded in-flight + queue admission:
// one request executes, one queues, the third is rejected with 429 and a
// jittered Retry-After header.
func TestAdmissionControl(t *testing.T) {
	real := tracex.NewEngine()
	bp := newBlockingPredict()
	shim := &shimEngine{Engine: real, predict: bp.fn}
	s, base := newTestServer(t, Config{
		Engine: shim, MaxInFlight: 1, MaxQueue: 1,
		QueueWait: 10 * time.Second, RetryAfter: 3 * time.Second,
		DisableCoalescing: true,
	})
	// Pin the jitter at its midpoint: ceil(3s × (0.5 + 0.5)) = 3.
	s.jitter = func() float64 { return 0.5 }

	// A: occupies the single in-flight slot.
	doneA := make(chan int, 1)
	bodyA := inlinePredictBody(t, 4)
	go func() { doneA <- postStatus(base+"/v1/predict", bodyA) }()
	<-bp.started

	// B: parks in the wait queue.
	doneB := make(chan int, 1)
	bodyB := inlinePredictBody(t, 8)
	go func() { doneB <- postStatus(base+"/v1/predict", bodyB) }()
	waitFor(t, 10*time.Second, func() bool { return len(s.queue) == 1 }, "request B to queue")

	// C: beyond in-flight + queue → immediate 429.
	resp, body := post(t, base+"/v1/predict", inlinePredictBody(t, 16))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: %d %.300s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", ra)
	}
	var eb wire.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != "overloaded" || eb.Error.RetryAfterSeconds != 3 {
		t.Errorf("429 body: %+v", eb.Error)
	}
	if got := real.Registry().Counter("server.rejected").Value(); got != 1 {
		t.Errorf("server.rejected = %d, want 1", got)
	}

	// Release: A and B both complete.
	close(bp.release)
	if got := <-doneA; got != 200 {
		t.Errorf("request A finished %d", got)
	}
	if got := <-doneB; got != 200 {
		t.Errorf("request B finished %d", got)
	}
}

// TestQueueWaitTimeout verifies a queued request gives up with 429 once
// QueueWait elapses. The queued request goes out under a client timeout,
// and the blocked handler is released on cleanup, so an admission that
// lets it run instead fails the test within seconds rather than hanging.
func TestQueueWaitTimeout(t *testing.T) {
	real := tracex.NewEngine()
	bp := newBlockingPredict()
	shim := &shimEngine{Engine: real, predict: bp.fn}
	_, base := newTestServer(t, Config{
		Engine: shim, MaxInFlight: 1, MaxQueue: 1,
		QueueWait: 50 * time.Millisecond, DisableCoalescing: true,
	})
	release := sync.OnceFunc(func() { close(bp.release) })
	t.Cleanup(release)
	done := make(chan int, 1)
	bodyA := inlinePredictBody(t, 4)
	go func() { done <- postStatus(base+"/v1/predict", bodyA) }()
	<-bp.started
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Post(base+"/v1/predict", "application/json", bytes.NewReader([]byte(inlinePredictBody(t, 8))))
	if err != nil {
		t.Fatalf("queued request got no answer: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("queued request after QueueWait: %d, want 429", resp.StatusCode)
	}
	release()
	if got := <-done; got != 200 {
		t.Errorf("request A finished %d", got)
	}
}

// TestClientDisconnectCancels verifies an in-flight request's engine
// context is cancelled when its client goes away.
func TestClientDisconnectCancels(t *testing.T) {
	real := tracex.NewEngine()
	bp := newBlockingPredict()
	shim := &shimEngine{Engine: real, predict: bp.fn}
	_, base := newTestServer(t, Config{Engine: shim})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", base+"/v1/predict",
		bytes.NewReader([]byte(inlinePredictBody(t, 4))))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-bp.started // the engine is now blocked inside the request
	cancel()     // client hangs up

	select {
	case err := <-bp.cancels:
		if err == nil {
			t.Error("engine context done with nil error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("engine context never cancelled after client disconnect")
	}
	if err := <-errc; err == nil {
		t.Error("client's Do returned no error after cancellation")
	}
}

// TestShutdownDrains verifies the graceful lifecycle: Shutdown stops
// accepting work, flips /readyz to not-ready, and returns only after
// in-flight requests complete.
func TestShutdownDrains(t *testing.T) {
	real := tracex.NewEngine()
	bp := newBlockingPredict()
	shim := &shimEngine{Engine: real, predict: bp.fn}
	s, err := New(Config{Engine: shim})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()

	inflight := make(chan int, 1)
	body := inlinePredictBody(t, 4)
	go func() { inflight <- postStatus(base+"/v1/predict", body) }()
	<-bp.started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// Readiness flips immediately; the in-flight request is still running.
	waitFor(t, 10*time.Second, func() bool { return !s.ready.Load() }, "readiness to flip")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("/readyz during drain: %d, want 503", rec.Code)
	}
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) before the in-flight request drained", err)
	case <-time.After(100 * time.Millisecond):
	}

	// The drained request still completes successfully.
	close(bp.release)
	if got := <-inflight; got != 200 {
		t.Errorf("in-flight request finished %d during drain", got)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	// The listener is closed: new connections fail.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("listener still accepting connections after Shutdown")
	}
}

// TestCoalescingDisabled verifies -no-coalesce semantics: identical
// concurrent requests each compute.
func TestCoalescingDisabled(t *testing.T) {
	real := tracex.NewEngine()
	bp := newBlockingPredict()
	shim := &shimEngine{Engine: real, predict: bp.fn}
	_, base := newTestServer(t, Config{Engine: shim, MaxInFlight: 4, DisableCoalescing: true})

	body := inlinePredictBody(t, 4)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := postStatus(base+"/v1/predict", body); got != 200 {
				t.Errorf("status %d", got)
			}
		}()
	}
	<-bp.started
	<-bp.started // both requests reach the engine
	close(bp.release)
	wg.Wait()
	if calls := bp.calls.Load(); calls != 2 {
		t.Errorf("%d computations with coalescing disabled, want 2", calls)
	}
	if got := real.Registry().Counter("server.coalesced").Value(); got != 0 {
		t.Errorf("server.coalesced = %d with coalescing disabled", got)
	}
}

// TestErrorBodyGolden change-detects the structured error wire format.
func TestErrorBodyGolden(t *testing.T) {
	s, err := New(Config{Engine: tracex.NewEngine(), RetryAfter: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Pin the Retry-After jitter at its midpoint so the golden is stable:
	// ceil(2s × (0.5 + 0.5)) = 2.
	s.jitter = func() float64 { return 0.5 }
	cases := []struct {
		name string
		err  error
	}{
		{"overloaded", fmt.Errorf("server: %w: 4 in-flight and 16 queued requests", errOverloaded)},
		{"not_found", notFoundf(`unknown application "nosuch"`)},
		{"no_traces", fmt.Errorf("tracex: %w", tracex.ErrNoTraces)},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		s.writeError(rec, c.err)
		got := rec.Body.Bytes()
		path := filepath.Join("testdata", "error_"+c.name+".golden.json")
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s (rerun with -update to regenerate): %v", c.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s error body drifted:\n got: %s\nwant: %s", c.name, got, want)
		}
		if c.name == "overloaded" {
			if ra := rec.Header().Get("Retry-After"); ra != "2" {
				t.Errorf("overloaded Retry-After = %q, want \"2\"", ra)
			}
		}
	}
}

// TestRouteName pins the metric labels.
func TestRouteName(t *testing.T) {
	cases := map[string]string{
		"/v1/predict":     "predict",
		"/v1/study":       "study",
		"/v1/extrapolate": "extrapolate",
		"/v1/signatures":  "signatures",
		"/v1/apps":        "apps",
		"/v1/machines":    "machines",
		"/healthz":        "healthz",
		"/readyz":         "readyz",
		"/metrics":        "metrics",
		"/":               "root",
		"/v1/bogus":       "other",
		"/favicon.ico":    "other",
	}
	for path, want := range cases {
		if got := routeName(path); got != want {
			t.Errorf("routeName(%q) = %q, want %q", path, got, want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New without an engine accepted")
	}
}
