package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"encoding/json"

	"tracex"
	"tracex/wire"
)

// TestRetryAfterJitter pins the jittered Retry-After contract: draws stay
// within [ceil(0.5×base), ceil(1.5×base)], actually vary, and the header
// always equals the body's retry_after_seconds.
func TestRetryAfterJitter(t *testing.T) {
	s, err := New(Config{Engine: tracex.NewEngine(), RetryAfter: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; i < 500; i++ {
		secs := s.retryAfterSeconds()
		if secs < 2 || secs > 5 {
			t.Fatalf("retryAfterSeconds = %d, want within [2, 5] for a 3s base", secs)
		}
		seen[secs] = true
	}
	if len(seen) < 2 {
		t.Errorf("500 draws produced a single value %v; jitter is not applied", seen)
	}

	for i := 0; i < 20; i++ {
		rec := httptest.NewRecorder()
		s.writeError(rec, fmt.Errorf("server: %w: full", errOverloaded))
		var eb wire.ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatal(err)
		}
		if got := rec.Header().Get("Retry-After"); got != strconv.Itoa(eb.Error.RetryAfterSeconds) {
			t.Fatalf("Retry-After header %q != body retry_after_seconds %d", got, eb.Error.RetryAfterSeconds)
		}
	}
}

// TestAdmissionBounds drives admit and release from many goroutines at
// once and checks the admission invariants on every call: no more than
// MaxInFlight requests hold a slot together, the wait queue never holds
// more than MaxQueue, every refusal is errOverloaded, and both channels are
// empty once the callers finish. It also pins an uncontended admit plus
// release at zero allocations, which the bound releaseFn is there for.
func TestAdmissionBounds(t *testing.T) {
	const (
		maxInFlight = 3
		maxQueue    = 5
		callers     = 64
		calls       = 200
	)
	s, err := New(Config{
		Engine: tracex.NewEngine(), MaxInFlight: maxInFlight, MaxQueue: maxQueue,
		QueueWait: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var held, peakHeld, peakQueue, admitted, rejected atomic.Int64
	raise := func(peak *atomic.Int64, v int64) {
		for {
			cur := peak.Load()
			if v <= cur || peak.CompareAndSwap(cur, v) {
				return
			}
		}
	}
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				release, err := s.admit(context.Background())
				raise(&peakQueue, int64(len(s.queue)))
				if err != nil {
					if !errors.Is(err, errOverloaded) {
						errs <- err
						return
					}
					rejected.Add(1)
					continue
				}
				admitted.Add(1)
				raise(&peakHeld, held.Add(1))
				time.Sleep(50 * time.Microsecond)
				held.Add(-1)
				release()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("admit failed with %v, want errOverloaded", err)
	}
	if got := peakHeld.Load(); got > maxInFlight {
		t.Errorf("%d requests held a slot at once, want at most %d", got, maxInFlight)
	}
	if got := peakQueue.Load(); got > maxQueue {
		t.Errorf("wait queue reached %d, want at most %d", got, maxQueue)
	}
	if len(s.inflight) != 0 || len(s.queue) != 0 {
		t.Errorf("after the run: %d in flight, %d queued, want both empty", len(s.inflight), len(s.queue))
	}
	if admitted.Load() == 0 || rejected.Load() == 0 {
		t.Errorf("admitted %d, rejected %d: want both outcomes", admitted.Load(), rejected.Load())
	}
	t.Logf("%d admitted, %d rejected", admitted.Load(), rejected.Load())

	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		release, err := s.admit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		release()
	})
	if allocs != 0 {
		t.Errorf("uncontended admit+release allocates %.1f times per call, want 0", allocs)
	}
}

// TestQueueDeadlineExpiry covers admission under queue-full with mixed
// deadlines: a queued request whose deadline expires while waiting is
// rejected without ever occupying an in-flight slot, while a
// long-deadline request queued behind it still completes once the slot
// frees.
func TestQueueDeadlineExpiry(t *testing.T) {
	real := tracex.NewEngine()
	bp := newBlockingPredict()
	shim := &shimEngine{Engine: real, predict: bp.fn}
	s, base := newTestServer(t, Config{
		Engine: shim, MaxInFlight: 1, MaxQueue: 2,
		QueueWait: 30 * time.Second, DisableCoalescing: true,
	})

	// A: occupies the single in-flight slot.
	doneA := make(chan int, 1)
	bodyA := inlinePredictBody(t, 4)
	go func() { doneA <- postStatus(base+"/v1/predict", bodyA) }()
	<-bp.started

	// B: queues with a deadline far shorter than A will block.
	errB := make(chan error, 1)
	go func() {
		// Long enough for C to reliably queue behind B first, short enough
		// to expire well before A's release.
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, "POST", base+"/v1/predict",
			strings.NewReader(inlinePredictBody(t, 8)))
		if err != nil {
			errB <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("request B got status %d, want deadline expiry", resp.StatusCode)
		}
		errB <- err
	}()
	waitFor(t, 10*time.Second, func() bool { return len(s.queue) == 1 }, "request B to queue")

	// C: queues behind B with a generous deadline.
	doneC := make(chan int, 1)
	bodyC := inlinePredictBody(t, 16)
	go func() { doneC <- postStatus(base+"/v1/predict", bodyC) }()
	waitFor(t, 10*time.Second, func() bool { return len(s.queue) == 2 }, "request C to queue")

	// B's deadline fires while queued: its transport errors out and its
	// queue slot drains — without B ever reaching the engine.
	if err := <-errB; err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("request B: %v, want client deadline expiry", err)
	}
	waitFor(t, 10*time.Second, func() bool { return len(s.queue) == 1 }, "request B's queue slot to drain")
	if calls := bp.calls.Load(); calls != 1 {
		t.Fatalf("engine saw %d calls while A blocks; expired B must not run", calls)
	}
	if got := len(s.inflight); got != 1 {
		t.Fatalf("in-flight = %d with only A admitted; expired B holds a slot", got)
	}

	// Release: A completes and C — not the expired B — takes the slot.
	close(bp.release)
	if got := <-doneA; got != 200 {
		t.Errorf("request A finished %d", got)
	}
	if got := <-doneC; got != 200 {
		t.Errorf("request C finished %d", got)
	}
	if calls := bp.calls.Load(); calls != 2 {
		t.Errorf("engine ran %d calls, want 2 (A and C)", calls)
	}
	waitFor(t, 10*time.Second, func() bool { return len(s.inflight) == 0 && len(s.queue) == 0 }, "slots to drain")
}
