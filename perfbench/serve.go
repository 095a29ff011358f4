package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"tracex"
	"tracex/client"
	"tracex/internal/obs"
	"tracex/internal/server"
	"tracex/internal/store"
	"tracex/wire"
)

// serveConfig shapes an HTTP workload's set-up.
type serveConfig struct {
	// cores lists the identities (benchApp, cores, benchMachine).
	cores []int
	// store runs the daemon with a fresh on-disk store and seeds each
	// identity's stored hash and signature for GET and PUT ops.
	store bool
}

// identity is one (app, cores, machine) key with the values its ops must
// return, recorded at set-up.
type identity struct {
	cores   int
	key     string
	req     *wire.PredictRequest
	runtime float64
	events  float64 // psins.events of one predict
	hash    string
	sig     *tracex.Signature
	// reqBody and sigBody are the bytes the server decodes for a predict
	// and a PUT (traced runs only).
	reqBody, sigBody []byte
}

// serveInstance is an in-process tracexd driven through tracex/client,
// one client and connection pool per caller.
type serveInstance struct {
	cfg     serveConfig
	eng     *tracex.Engine
	srv     *server.Server
	clients []*client.Client
	trans   []*countingTransport
	idents  []identity
	byCores map[int]int
	machine tracex.MachineConfig
	dirs    []string
	// scratch receives the replayed PUT writes of a traced run, so they
	// do not change what the served store holds.
	scratch  *store.Store
	current  []atomic.Pointer[tracedOp]
	profDur  time.Duration
	profRefs float64
}

// tracedOp is the op a caller has in flight in a traced window.
type tracedOp struct {
	tr *tracer
	sp opSpan
}

func setupServe(ctx context.Context, run runConfig, cfg serveConfig) (_ instance, err error) {
	m, err := tracex.LoadMachine(benchMachine)
	if err != nil {
		return nil, err
	}
	s := &serveInstance{cfg: cfg, machine: m, byCores: map[int]int{}, current: make([]atomic.Pointer[tracedOp], callers)}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	var opts []tracex.EngineOption
	if cfg.store {
		dir, err := s.tempDir(run.outDir, "store-")
		if err != nil {
			return nil, err
		}
		opts = append(opts, tracex.WithStore(dir))
	}
	s.eng = tracex.NewEngine(opts...)
	if err := s.eng.Err(); err != nil {
		return nil, err
	}
	var eng server.Engine = s.eng
	if run.traced {
		eng = &tracedEngine{Engine: s.eng, inst: s}
		if cfg.store {
			dir, err := s.tempDir(run.outDir, "scratch-")
			if err != nil {
				return nil, err
			}
			if s.scratch, err = store.Open(dir, nil); err != nil {
				return nil, err
			}
		}
	}
	if s.srv, err = server.New(server.Config{Engine: eng}); err != nil {
		return nil, err
	}
	addr, err := s.srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	for c := 0; c < callers; c++ {
		ct := &countingTransport{base: &http.Transport{MaxIdleConnsPerHost: 2}}
		s.trans = append(s.trans, ct)
		s.clients = append(s.clients, client.New("http://"+addr.String(), client.WithHTTPClient(&http.Client{Transport: ct})))
	}

	// The daemon builds the machine profile on its first predict; the
	// benchmark builds it first through the same engine so its cost is
	// measured on its own.
	before := counters(s.eng.Registry())["multimaps.refs"]
	t := time.Now()
	if _, err := s.eng.Profile(ctx, m); err != nil {
		return nil, err
	}
	s.profDur = time.Since(t)
	s.profRefs = counters(s.eng.Registry())["multimaps.refs"] - before

	for k, cores := range cfg.cores {
		s.byCores[cores] = k
	}
	// Seed every identity with one predict (a fresh collection), one at a
	// time, so the registry delta around it is that identity's replay
	// event count.
	cl := s.clients[0]
	for _, cores := range cfg.cores {
		id := identity{
			cores: cores,
			key:   client.Key(benchApp, cores, benchMachine),
			req:   &wire.PredictRequest{App: benchApp, Cores: cores, Machine: benchMachine, Sampling: seedSampling},
		}
		before := counters(s.eng.Registry())["psins.events"]
		resp, err := cl.Predict(ctx, id.req)
		if err != nil {
			return nil, fmt.Errorf("seeding %s: %w", id.key, err)
		}
		if resp.From != string(tracex.FromCollected) {
			return nil, fmt.Errorf("seeding %s: served from %q, want a fresh collection", id.key, resp.From)
		}
		id.runtime = resp.RuntimeSeconds
		id.events = counters(s.eng.Registry())["psins.events"] - before
		if cfg.store {
			got, err := cl.GetSignature(ctx, id.key)
			if err != nil {
				return nil, fmt.Errorf("seeding %s: %w", id.key, err)
			}
			id.hash, id.sig = got.Hash, got.Signature
		}
		if run.traced {
			if id.reqBody, err = json.Marshal(id.req); err != nil {
				return nil, err
			}
			if id.sig != nil {
				if id.sigBody, err = json.Marshal(id.sig); err != nil {
					return nil, err
				}
			}
		}
		s.idents = append(s.idents, id)
	}
	return s, nil
}

func (s *serveInstance) tempDir(root, prefix string) (string, error) {
	base := filepath.Join(root, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(base, prefix)
	if err != nil {
		return "", err
	}
	s.dirs = append(s.dirs, dir)
	return dir, nil
}

func (s *serveInstance) registry() *obs.Registry { return s.eng.Registry() }

func (s *serveInstance) profile() (time.Duration, float64) { return s.profDur, s.profRefs }

func (s *serveInstance) close() error {
	var errs []error
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, s.srv.Shutdown(ctx))
		cancel()
	}
	for _, ct := range s.trans {
		ct.base.CloseIdleConnections()
	}
	if s.eng != nil {
		errs = append(errs, s.eng.Close())
	}
	if s.scratch != nil {
		errs = append(errs, s.scratch.Close())
	}
	for _, d := range s.dirs {
		errs = append(errs, os.RemoveAll(d))
	}
	return errors.Join(errs...)
}

func (s *serveInstance) do(ctx context.Context, o op, tr *tracer, sp opSpan) opResult {
	id := &s.idents[o.ident]
	cl, ct := s.clients[o.caller], s.trans[o.caller]
	if tr != nil {
		s.current[o.caller].Store(&tracedOp{tr: tr, sp: sp})
		defer s.current[o.caller].Store(nil)
	}
	trips0, bytes0 := ct.trips.Load(), ct.bytes.Load()
	r := opResult{repeat: true} // every identity is seeded at set-up
	switch o.kind {
	case kindPredict:
		var resp *wire.PredictResponse
		resp, r.err = cl.Predict(ctx, id.req)
		if r.err == nil {
			r.err = s.checkPredict(id, resp)
			r.out = fmt.Appendf(nil, "%d predict %d %x", o.index, id.cores, math.Float64bits(resp.RuntimeSeconds))
			r.counts.psinsEvents = id.events
		}
		if tr != nil && r.err == nil {
			// The server decodes the request and encodes the response
			// around the engine calls; replay both with the same bytes.
			r.replay = func() error {
				var err error
				tr.replay(sp, "wire.decode", "wire", func() { err = wire.DecodeStrict(bytes.NewReader(id.reqBody), new(wire.PredictRequest)) })
				tr.replay(sp, "wire.encode", "wire", func() { _ = resp.AppendJSON(make([]byte, 0, 512)) })
				return err
			}
		}
	case kindGet:
		// Nothing is replayed for a GET: it makes no engine call, and the
		// server serves the body from its read cache or, on a miss, reads
		// and encodes the stored object. Which GET missed cannot be told
		// from outside, so all of a GET is the server's own time.
		var resp *wire.StoredSignatureResponse
		resp, r.err = cl.GetSignature(ctx, id.key)
		if r.err == nil {
			if resp.Hash != id.hash || resp.Signature == nil || resp.Signature.CoreCount != id.cores {
				r.err = fmt.Errorf("GET %s returned hash %s for %v cores, want %s", id.key, resp.Hash, coresOf(resp.Signature), id.hash)
			}
			r.out = fmt.Appendf(nil, "%d get %d %s", o.index, id.cores, resp.Hash)
		}
	case kindPut:
		var resp *wire.StorePutResponse
		resp, r.err = cl.PutSignature(ctx, id.key, id.sig)
		if r.err == nil {
			if resp.Hash != id.hash {
				r.err = fmt.Errorf("PUT %s echoed hash %s, want %s", id.key, resp.Hash, id.hash)
			}
			r.out = fmt.Appendf(nil, "%d put %d %s", o.index, id.cores, resp.Hash)
		}
		if tr != nil && r.err == nil {
			// The server decodes the signature and writes it through the
			// store; replay both, the write into a scratch store.
			r.replay = func() error {
				var decErr, putErr error
				tr.replay(sp, "wire.decode", "wire", func() { decErr = wire.DecodeStrict(bytes.NewReader(id.sigBody), new(tracex.Signature)) })
				tr.replay(sp, "store.put", "store", func() {
					_, putErr = s.scratch.Put(id.sig, tracex.StoreKey(id.sig.App, id.sig.CoreCount, s.machine, tracex.CollectOptions{}))
				})
				return errors.Join(decErr, putErr)
			}
		}
	}
	r.counts.respBytes = float64(ct.bytes.Load() - bytes0)
	r.retries = max(0, int(ct.trips.Load()-trips0)-1)
	return r
}

// checkPredict accepts a predict that returns the runtime recorded at
// set-up from the memory tier, or, on a daemon with a store, the disk tier.
func (s *serveInstance) checkPredict(id *identity, resp *wire.PredictResponse) error {
	if resp.RuntimeSeconds != id.runtime {
		return fmt.Errorf("predict %s returned %v s, recorded %v s at set-up", id.key, resp.RuntimeSeconds, id.runtime)
	}
	switch tracex.Provenance(resp.From) {
	case tracex.FromMemory:
		return nil
	case tracex.FromDisk:
		if s.cfg.store {
			return nil
		}
	}
	return fmt.Errorf("predict %s served from %q, want the memory tier or, with a store, the disk tier", id.key, resp.From)
}

func coresOf(sig *tracex.Signature) any {
	if sig == nil {
		return "no signature"
	}
	return sig.CoreCount
}

// tracedEngine is the engine a traced run's daemon drives: it times the
// daemon's calls into Engine.CollectSignatureFrom and Engine.Predict and
// files them under the op in flight for that identity. Identities are
// partitioned by caller, so the identity names the op.
type tracedEngine struct {
	*tracex.Engine
	inst *serveInstance
}

func (t *tracedEngine) inFlight(cores int) *tracedOp {
	k, ok := t.inst.byCores[cores]
	if !ok {
		return nil
	}
	return t.inst.current[k%callers].Load()
}

func (t *tracedEngine) CollectSignatureFrom(ctx context.Context, app *tracex.App, cores int, target tracex.MachineConfig, opt tracex.CollectOptions) (*tracex.Signature, tracex.Provenance, error) {
	cur := t.inFlight(cores)
	if cur == nil {
		return t.Engine.CollectSignatureFrom(ctx, app, cores, target, opt)
	}
	start := cur.tr.now()
	sig, prov, err := t.Engine.CollectSignatureFrom(ctx, app, cores, target, opt)
	layer := "engine"
	if prov == tracex.FromCollected {
		layer = "pebil"
	}
	cur.tr.add(span{Parent: cur.sp.root, Op: cur.sp.index, Name: "engine.collect", Layer: layer, Start: start, End: cur.tr.now(), Tier: string(prov)})
	return sig, prov, err
}

func (t *tracedEngine) Predict(ctx context.Context, req tracex.PredictRequest) (*tracex.Prediction, error) {
	var cur *tracedOp
	if req.Signature != nil {
		cur = t.inFlight(req.Signature.CoreCount)
	}
	if cur == nil {
		return t.Engine.Predict(ctx, req)
	}
	var pred *tracex.Prediction
	var err error
	cur.tr.child(cur.sp, "engine.predict", "psins", func() string {
		pred, err = t.Engine.Predict(ctx, req)
		return ""
	})
	return pred, err
}

// countingTransport counts a client's round trips and response body bytes.
type countingTransport struct {
	base  *http.Transport
	trips atomic.Int64
	bytes atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.trips.Add(1)
	resp, err := c.base.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.bytes}
	}
	return resp, err
}

// countingBody counts the bytes read from a response body; Close drains
// what the reader left, so the count is the whole body.
type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (b *countingBody) Close() error {
	n, _ := io.Copy(io.Discard, b.ReadCloser)
	b.n.Add(n)
	return b.ReadCloser.Close()
}
