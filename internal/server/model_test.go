package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"tracex/wire"
)

// TestPredictCacheModel exercises the model field end to end: the response
// echoes the model a collection ran under, unknown names are 400s, and
// targets the analytical model cannot serve are 422 model_unsupported.
func TestPredictCacheModel(t *testing.T) {
	_, base := newTestServer(t, Config{Engine: sharedEng})
	decode := func(b []byte) (r wire.PredictResponse) {
		t.Helper()
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatalf("decoding %s: %v", b, err)
		}
		return
	}

	resp, body := post(t, base+"/v1/predict",
		`{"app":"stencil3d","cores":64,"machine":"bluewaters","sampling":"fixed:20000","model":"analytical"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analytical predict: %d %s", resp.StatusCode, body)
	}
	if r := decode(body); r.Model != "analytical" {
		t.Errorf("model echo = %q, want analytical", r.Model)
	}

	// An omitted model runs (and reports) the default exact simulation.
	resp, body = post(t, base+"/v1/predict",
		`{"app":"stencil3d","cores":64,"machine":"bluewaters","sampling":"fixed:20000"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default predict: %d %s", resp.StatusCode, body)
	}
	if r := decode(body); r.Model != "exact" {
		t.Errorf("model echo = %q, want exact", r.Model)
	}

	// Unknown model names are client errors.
	resp, _ = post(t, base+"/v1/predict",
		`{"app":"stencil3d","cores":64,"machine":"bluewaters","model":"quantum"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown model: %d, want 400", resp.StatusCode)
	}

	// The analytical model cannot reproduce prefetch traffic: 422 with the
	// stable model_unsupported code.
	resp, body = post(t, base+"/v1/predict",
		`{"app":"stencil3d","cores":64,"machine":"bluewaters+pf","sampling":"fixed:20000","model":"analytical"}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("prefetch target: %d %s, want 422", resp.StatusCode, body)
	}
	var e wire.ErrorBody
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Error.Code != "model_unsupported" {
		t.Errorf("error code %q, want model_unsupported", e.Error.Code)
	}
}

// TestServerDefaultCacheModel: -cache-model changes what an omitted model
// field means, and the response echo stays truthful.
func TestServerDefaultCacheModel(t *testing.T) {
	_, base := newTestServer(t, Config{Engine: sharedEng, DefaultCacheModel: "analytical"})
	resp, body := post(t, base+"/v1/predict",
		`{"app":"stencil3d","cores":64,"machine":"bluewaters","sampling":"fixed:20000"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict under default analytical: %d %s", resp.StatusCode, body)
	}
	var r wire.PredictResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if r.Model != "analytical" {
		t.Errorf("model echo = %q, want analytical", r.Model)
	}
	// An explicit request-level model still wins over the server default.
	resp, body = post(t, base+"/v1/predict",
		`{"app":"stencil3d","cores":64,"machine":"bluewaters","sampling":"fixed:20000","model":"exact"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explicit exact: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if r.Model != "exact" {
		t.Errorf("model echo = %q, want exact", r.Model)
	}

	if _, err := New(Config{Engine: sharedEng, DefaultCacheModel: "quantum"}); err == nil {
		t.Error("unknown DefaultCacheModel accepted")
	}
}
