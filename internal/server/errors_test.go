package server

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"tracex"
	"tracex/wire"
)

// errorCode decodes a structured error body.
func errorCode(t *testing.T, body []byte) string {
	t.Helper()
	var e wire.ErrorBody
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("decoding error body %s: %v", body, err)
	}
	return e.Error.Code
}

// TestPredictAppMismatchIsConflict: a signature predicted against another
// application's event trace is the client's mismatch (409), not a 500 from
// deep inside the replay.
func TestPredictAppMismatchIsConflict(t *testing.T) {
	app, err := tracex.LoadApp("stencil3d")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := tracex.LoadMachine("bluewaters")
	if err != nil {
		t.Fatal(err)
	}
	sig, err := sharedEng.CollectSignature(context.Background(), app, 64, cfg,
		tracex.CollectOptions{Sampling: tracex.FixedSampling(testSampleRefs, testSampleRefs)})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(&wire.PredictRequest{App: "uh3d", Signature: sig})
	if err != nil {
		t.Fatal(err)
	}
	_, base := newTestServer(t, Config{Engine: sharedEng})
	resp, b := post(t, base+"/v1/predict", string(body))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stencil3d signature predicted as uh3d: %d %s, want 409", resp.StatusCode, b)
	}
	if code := errorCode(t, b); code != "machine_mismatch" {
		t.Errorf("error code %q, want machine_mismatch", code)
	}
}

// TestPredictCoresOutOfRange: a core count outside the application's
// CoreRange is a 400 with a stable code, for collected predicts.
func TestPredictCoresOutOfRange(t *testing.T) {
	_, base := newTestServer(t, Config{Engine: sharedEng})
	for _, body := range []string{
		`{"app":"uh3d","cores":4,"machine":"bluewaters","sampling":"fixed:20000"}`,
		`{"app":"stencil3d","cores":20000,"machine":"bluewaters","sampling":"fixed:20000"}`,
	} {
		resp, b := post(t, base+"/v1/predict", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", body, resp.StatusCode, b)
			continue
		}
		if code := errorCode(t, b); code != "cores_out_of_range" {
			t.Errorf("%s: error code %q, want cores_out_of_range", body, code)
		}
	}
}
