package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"
	"time"

	"tracex"
	"tracex/wire"
)

// storeEngine builds a real engine persisting to dir.
func storeEngine(t *testing.T, dir string) *tracex.Engine {
	t.Helper()
	eng := tracex.NewEngine(tracex.WithStore(dir))
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	return eng
}

// collectBody is the predict body that collects stencil3d@64@bluewaters.
func collectBody() string {
	return fmt.Sprintf(`{"app":"stencil3d","cores":64,"machine":"bluewaters","sampling":"fixed:%d"}`, testSampleRefs)
}

// predictFrom POSTs the collecting predict body and returns the response's
// from field.
func predictFrom(t *testing.T, base string) string {
	t.Helper()
	resp, body := post(t, base+"/v1/predict", collectBody())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: %d %s", resp.StatusCode, body)
	}
	var pr wire.PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	return pr.From
}

// TestStoreRoutesWithoutStore: a daemon without -store-dir answers the
// store routes with the stable 501 no_store error.
func TestStoreRoutesWithoutStore(t *testing.T) {
	_, base := newTestServer(t, Config{Engine: sharedEng})
	for _, req := range []struct{ method, path string }{
		{"GET", "/v1/signatures/stencil3d@64@bluewaters"},
		{"PUT", "/v1/signatures/stencil3d@64@bluewaters"},
	} {
		hr, err := http.NewRequest(req.method, base+req.path, bytes.NewReader(nil))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		var eb wire.ErrorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotImplemented || eb.Error.Code != "no_store" {
			t.Errorf("%s %s: %d %q", req.method, req.path, resp.StatusCode, eb.Error.Code)
		}
	}
}

// TestStoreRestartWarmStart is the acceptance scenario: a daemon collects
// and persists; a second daemon over the same store directory (the killed
// -and-restarted process) serves its first repeat predict from disk — no
// re-collection — observable in both the from field and /metrics.
func TestStoreRestartWarmStart(t *testing.T) {
	dir := t.TempDir()

	s1, base1 := newTestServer(t, Config{Engine: storeEngine(t, dir)})
	if from := predictFrom(t, base1); from != string(tracex.FromCollected) {
		t.Fatalf("first daemon's first predict came from %q", from)
	}
	if from := predictFrom(t, base1); from != string(tracex.FromMemory) {
		t.Errorf("first daemon's repeat predict came from %q", from)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// The restarted daemon: fresh engine, fresh caches, same directory.
	_, base2 := newTestServer(t, Config{Engine: storeEngine(t, dir)})
	if from := predictFrom(t, base2); from != string(tracex.FromDisk) {
		t.Fatalf("restarted daemon's predict came from %q, want disk", from)
	}
	// The warm start is visible in the metrics snapshot.
	resp, body := get(t, base2+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	var snap struct {
		Metrics []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"metrics"`
		Spans []struct {
			Name  string `json:"name"`
			Count uint64 `json:"count"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, m := range snap.Metrics {
		vals[m.Name] = m.Value
	}
	if vals["store.hits"] != 1 {
		t.Errorf("store.hits = %g after warm start", vals["store.hits"])
	}
	for _, sp := range snap.Spans {
		if sp.Name == "pebil.collect" && sp.Count != 0 {
			t.Errorf("restarted daemon ran %d collections", sp.Count)
		}
	}
}

// TestStoreGetPutRoutes exercises the full HTTP store surface: fetch by
// triple, fetch by content hash, import into a fresh store, and the
// validation failures.
func TestStoreGetPutRoutes(t *testing.T) {
	dir := t.TempDir()
	_, base := newTestServer(t, Config{Engine: storeEngine(t, dir)})
	if from := predictFrom(t, base); from != string(tracex.FromCollected) {
		t.Fatalf("collect came from %q", from)
	}

	// Fetch by human triple.
	resp, body := get(t, base+"/v1/signatures/stencil3d@64@bluewaters")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET by triple: %d %s", resp.StatusCode, body)
	}
	var sr wire.StoredSignatureResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.App != "stencil3d" || sr.Cores != 64 || sr.Machine != "bluewaters" {
		t.Errorf("triple fetch identity: %+v", sr)
	}
	if len(sr.Hash) != 64 || sr.Signature == nil || sr.Bytes <= 0 {
		t.Errorf("triple fetch incomplete: hash=%q bytes=%d", sr.Hash, sr.Bytes)
	}

	// Fetch the same object by its content hash.
	resp, body = get(t, base+"/v1/signatures/"+sr.Hash)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET by hash: %d %s", resp.StatusCode, body)
	}
	var hr wire.StoredSignatureResponse
	if err := json.Unmarshal(body, &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Hash != sr.Hash || hr.Signature == nil {
		t.Errorf("hash fetch: %+v", hr)
	}

	// Misses and malformed keys.
	if resp, _ := get(t, base+"/v1/signatures/uh3d@4096@bluewaters"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET miss: %d", resp.StatusCode)
	}
	if resp, _ := get(t, base+"/v1/signatures/not-a-key"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET malformed key: %d", resp.StatusCode)
	}

	// Import the signature into a second, empty store via PUT; the next
	// collection there warm-starts from the imported object.
	dir2 := t.TempDir()
	eng2 := storeEngine(t, dir2)
	_, base2 := newTestServer(t, Config{Engine: eng2})
	sigJSON, err := json.Marshal(sr.Signature)
	if err != nil {
		t.Fatal(err)
	}
	putReq, err := http.NewRequest("PUT", base2+"/v1/signatures/stencil3d@64@bluewaters", bytes.NewReader(sigJSON))
	if err != nil {
		t.Fatal(err)
	}
	putResp, err := http.DefaultClient.Do(putReq)
	if err != nil {
		t.Fatal(err)
	}
	defer putResp.Body.Close()
	var pr wire.StorePutResponse
	if err := json.NewDecoder(putResp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if putResp.StatusCode != http.StatusOK || pr.Hash != sr.Hash {
		t.Fatalf("PUT: %d %+v (want hash %s)", putResp.StatusCode, pr, sr.Hash)
	}

	// Key/signature mismatch is rejected.
	badReq, err := http.NewRequest("PUT", base2+"/v1/signatures/uh3d@64@bluewaters", bytes.NewReader(sigJSON))
	if err != nil {
		t.Fatal(err)
	}
	badResp, err := http.DefaultClient.Do(badReq)
	if err != nil {
		t.Fatal(err)
	}
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Errorf("PUT with mismatched key: %d", badResp.StatusCode)
	}
}

// TestStorePutKeepsUncertainty: an extrapolated signature with intervals
// on keeps its uncertainty through PUT and a GET by content hash.
func TestStorePutKeepsUncertainty(t *testing.T) {
	app, err := tracex.LoadApp("stencil3d")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := tracex.LoadMachine("bluewaters")
	if err != nil {
		t.Fatal(err)
	}
	inputs, err := sharedEng.CollectInputs(context.Background(), app, []int{64, 128, 256}, cfg,
		tracex.CollectOptions{Sampling: tracex.FixedSampling(testSampleRefs, testSampleRefs)})
	if err != nil {
		t.Fatal(err)
	}
	_, base := newTestServer(t, Config{Engine: storeEngine(t, t.TempDir())})
	ereq, err := json.Marshal(&wire.ExtrapolateRequest{Signatures: inputs, TargetCores: 512, Intervals: wire.Bool(true)})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, base+"/v1/extrapolate", string(ereq))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("extrapolate: %d %.300s", resp.StatusCode, body)
	}
	var er wire.ExtrapolateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Signature == nil || er.Signature.Uncertainty == nil {
		t.Fatal("intervals-on extrapolation returned no uncertainty")
	}

	sigJSON, err := json.Marshal(er.Signature)
	if err != nil {
		t.Fatal(err)
	}
	putReq, err := http.NewRequest("PUT", base+"/v1/signatures/stencil3d@512@bluewaters", bytes.NewReader(sigJSON))
	if err != nil {
		t.Fatal(err)
	}
	putResp, err := http.DefaultClient.Do(putReq)
	if err != nil {
		t.Fatal(err)
	}
	defer putResp.Body.Close()
	var pr wire.StorePutResponse
	if err := json.NewDecoder(putResp.Body).Decode(&pr); err != nil || putResp.StatusCode != http.StatusOK {
		t.Fatalf("PUT: %d %+v %v", putResp.StatusCode, pr, err)
	}

	resp, body = get(t, base+"/v1/signatures/"+pr.Hash)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET by hash: %d %s", resp.StatusCode, body)
	}
	var sr wire.StoredSignatureResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Signature == nil || !reflect.DeepEqual(sr.Signature.Uncertainty, er.Signature.Uncertainty) {
		t.Errorf("stored uncertainty differs from the extrapolated one")
	}
}
