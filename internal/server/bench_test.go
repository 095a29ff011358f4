package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"tracex"
	"tracex/wire"
)

// benchServer builds a server over an instant synthetic Predict, so the
// benchmarks measure the handler path (decode, canonical key, admission,
// coalescing, marshal) rather than the simulation.
func benchServer(b *testing.B, disableCoalescing bool) (*Server, []byte) {
	b.Helper()
	shim := &shimEngine{
		Engine: tracex.NewEngine(),
		predict: func(_ context.Context, req tracex.PredictRequest) (*tracex.Prediction, error) {
			return &tracex.Prediction{
				App: req.Signature.App, CoreCount: req.Signature.CoreCount,
				Machine: req.Signature.Machine, Runtime: 1.5,
			}, nil
		},
	}
	s, err := New(Config{Engine: shim, DisableCoalescing: disableCoalescing})
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(&wire.PredictRequest{Signature: inlineSig(64)})
	if err != nil {
		b.Fatal(err)
	}
	return s, body
}

// benchPredict drives b.N parallel /v1/predict requests through the full
// handler stack in-process.
func benchPredict(b *testing.B, s *Server, body []byte) {
	b.Helper()
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != 200 {
				b.Fatalf("status %d: %.200s", rec.Code, rec.Body.String())
			}
		}
	})
	b.StopTimer()
	reg := s.eng.Registry()
	b.ReportMetric(float64(reg.Counter("server.coalesced").Value())/float64(b.N), "coalesced/op")
	b.ReportMetric(float64(reg.Counter("server.rejected").Value())/float64(b.N), "rejected/op")
}

func BenchmarkServerPredict(b *testing.B) {
	s, body := benchServer(b, false)
	benchPredict(b, s, body)
}

func BenchmarkServerPredictNoCoalesce(b *testing.B) {
	s, body := benchServer(b, true)
	benchPredict(b, s, body)
}

// BenchmarkStoreGet compares the signature-GET fast path (index-only key
// resolution plus the marshalled-body LRU) against the pre-change
// behavior (every GET reads and re-encodes the object, StoreReadCache
// disabled). The store holds one real collected signature.
func BenchmarkStoreGet(b *testing.B) {
	for _, bc := range []struct {
		name      string
		readCache int
	}{
		{"fastpath", 0},  // default: body LRU enabled
		{"baseline", -1}, // pre-change: decode + marshal every GET
	} {
		b.Run(bc.name, func(b *testing.B) {
			eng := tracex.NewEngine(tracex.WithStore(b.TempDir()))
			if err := eng.Err(); err != nil {
				b.Fatal(err)
			}
			s, err := New(Config{Engine: eng, StoreReadCache: bc.readCache})
			if err != nil {
				b.Fatal(err)
			}
			h := s.Handler()
			collect := httptest.NewRequest("POST", "/v1/predict",
				bytes.NewReader([]byte(`{"app":"stencil3d","cores":64,"machine":"bluewaters","sampling":"fixed:20000"}`)))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, collect)
			if rec.Code != 200 {
				b.Fatalf("collect: %d %.200s", rec.Code, rec.Body.String())
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					req := httptest.NewRequest("GET", "/v1/signatures/stencil3d@64@bluewaters", nil)
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, req)
					if rec.Code != 200 {
						b.Fatalf("GET: %d %.200s", rec.Code, rec.Body.String())
					}
				}
			})
		})
	}
}
