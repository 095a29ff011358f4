package pebil

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"tracex/internal/cache"
	"tracex/internal/machine"
)

// ErrArenaClosed reports a collection submitted after Close.
var ErrArenaClosed = errors.New("pebil: worker arena closed")

// scratch is the per-worker reusable state: the address slab shared by the
// warm and sample phases, and the cache simulator from the previous work
// unit, reused (after a Flush) whenever the next unit targets the same
// hierarchy. Reuse makes the steady-state allocation count of a collection
// zero once every worker has seen the target geometry.
type scratch struct {
	buf []uint64
	sim *cache.Simulator
	// simLevels/simPrefetch record the geometry sim was built for.
	simLevels   []cache.LevelConfig
	simPrefetch bool
	// rec is the worker's reuse-distance recorder, reused (after a Reset)
	// across reuse-collection work units.
	rec *cache.ReuseRecorder
}

// slab returns the worker's address buffer resized to n.
func (s *scratch) slab(n int) []uint64 {
	if cap(s.buf) < n {
		s.buf = make([]uint64, n)
	}
	return s.buf[:n]
}

// simulator returns a flushed simulator for the target hierarchy, reusing
// the worker's previous one when the geometry matches. A flushed simulator
// is indistinguishable from a fresh one (cache.Simulator.Flush resets
// contents, counters and prefetcher state).
func (s *scratch) simulator(target machine.Config) (*cache.Simulator, error) {
	if s.sim != nil && s.simPrefetch == target.Prefetch && sameLevels(s.simLevels, target.Caches) {
		s.sim.Flush()
		return s.sim, nil
	}
	sim, err := cache.NewSimulatorOpts(target.Caches, cache.Options{NextLinePrefetch: target.Prefetch})
	if err != nil {
		return nil, err
	}
	s.sim = sim
	s.simLevels = append(s.simLevels[:0], target.Caches...)
	s.simPrefetch = target.Prefetch
	return sim, nil
}

// recorder returns a reset reuse-distance recorder with capacity for n
// references, reusing the worker's previous one when the line size matches.
func (s *scratch) recorder(lineSize, n int) (*cache.ReuseRecorder, error) {
	if s.rec != nil && s.rec.LineSize() == lineSize {
		s.rec.Reset(n)
		return s.rec, nil
	}
	rec, err := cache.NewReuseRecorder(lineSize, n)
	if err != nil {
		return nil, err
	}
	s.rec = rec
	return rec, nil
}

func sameLevels(a, b []cache.LevelConfig) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Arena is a reusable pool of collection workers. Each worker goroutine
// owns a scratch (address slab plus reusable simulator) for its lifetime,
// so concurrent collections share the pool without sharing mutable state.
// An Arena is safe for concurrent use; Close drains it.
type Arena struct {
	workers int
	jobs    chan func(*scratch)
	wg      sync.WaitGroup
	mu      sync.RWMutex
	closed  bool
}

// NewArena starts an arena of the given size; n ≤ 0 means one worker per
// CPU.
func NewArena(n int) *Arena {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	a := &Arena{workers: n, jobs: make(chan func(*scratch))}
	a.wg.Add(a.workers)
	for i := 0; i < a.workers; i++ {
		go func() {
			defer a.wg.Done()
			var s scratch
			for job := range a.jobs {
				job(&s)
			}
		}()
	}
	return a
}

// width is how many workers run executes n units on: one per unit, up to
// the pool size.
func (a *Arena) width(n int) int { return max(1, min(n, a.workers)) }

// Close stops accepting work, waits for in-flight jobs to finish and
// releases the worker goroutines. It is idempotent.
func (a *Arena) Close() {
	a.mu.Lock()
	if !a.closed {
		a.closed = true
		close(a.jobs)
	}
	a.mu.Unlock()
	a.wg.Wait()
}

// submit hands one job to the pool, failing fast when the arena is closed
// or ctx is cancelled before a worker frees up.
func (a *Arena) submit(ctx context.Context, job func(*scratch)) error {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.closed {
		return ErrArenaClosed
	}
	select {
	case a.jobs <- job:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// run executes n work units on up to a.width(n) of the arena's workers,
// calling unit(i, s) for every i in [0, n). Units are handed out
// through a shared index counter to long-lived runner jobs, so one worker
// processes many units back to back and its scratch amortizes across them.
// Results must be written into caller-owned slots indexed by unit, which
// keeps the reduction order-independent. The returned error prefers a real
// unit failure over the cancellations it may have triggered in siblings.
func (a *Arena) run(ctx context.Context, n int, unit func(i int, s *scratch) error) error {
	if n == 0 {
		return ctx.Err()
	}
	var next atomic.Int64
	errs := make([]error, n)
	var wg sync.WaitGroup
	runner := func(s *scratch) {
		defer wg.Done()
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			errs[i] = unit(i, s)
		}
	}
	var submitErr error
	submitted := 0
	for w := a.width(n); w > 0; w-- {
		wg.Add(1)
		if err := a.submit(ctx, runner); err != nil {
			wg.Done()
			submitErr = err
			break
		}
		submitted++
	}
	wg.Wait()
	if submitted == 0 {
		return submitErr
	}
	var ctxErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			ctxErr = err
			continue
		}
		return err
	}
	if ctxErr != nil {
		return ctxErr
	}
	return submitErr
}
