package pebil

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"tracex/internal/machine"
	"tracex/internal/synthapp"
)

var fastCfg = CollectorConfig{Sampling: FixedSampling(60_000, 120_000)}

func TestCollectorConfigValidate(t *testing.T) {
	good := []CollectorConfig{
		{},
		fastCfg,
		{SharedHierarchy: true},
		{Model: ModelAnalytical},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
	bad := []CollectorConfig{
		{Sampling: FixedSampling(-1, 0)},
		{Sampling: FixedSampling(0, -1)},
		{Model: "bogus"},
		{Model: ModelAnalytical, SharedHierarchy: true},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted invalid config", c)
		}
	}
}

func TestCollectorConfigNormalized(t *testing.T) {
	a := CollectorConfig{}.Normalized()
	want := CollectorConfig{Sampling: FixedSampling(DefaultSampleRefs, DefaultMaxWarmRefs), Model: ModelExact}
	if a != want {
		t.Errorf("zero config normalized to %+v, want %+v", a, want)
	}
	if f := (CollectorConfig{Sampling: FixedSampling(0, 0)}).Normalized(); f != a {
		t.Errorf("zero config and zero Fixed policy normalize differently: %+v vs %+v", a, f)
	}
	if n := a.Normalized(); n != a {
		t.Errorf("Normalized is not idempotent: %+v vs %+v", n, a)
	}
}

// TestCountersDeterministicAcrossWorkersAndBatch is the tentpole
// determinism guarantee for the batched path: how many arena workers a
// collection runs on changes no bit of its counters.
func TestCountersDeterministicAcrossWorkersAndBatch(t *testing.T) {
	app := synthapp.UH3D()
	bw := machine.BlueWatersP1()
	cfg := CollectorConfig{Sampling: FixedSampling(40_000, 80_000)}
	var base []BlockCounters
	for _, workers := range []int{1, 3, 8} {
		col := NewCollector(workers)
		got, err := col.Counters(context.Background(), app, 2048, bw, cfg)
		col.Close()
		if err != nil {
			t.Fatalf("Counters on %d workers: %v", workers, err)
		}
		if base == nil {
			base = got
			continue
		}
		if !reflect.DeepEqual(base, got) {
			t.Errorf("counters on %d workers differ from 1 worker", workers)
		}
	}
}

func TestCollectorRejectsInvalidConfig(t *testing.T) {
	app := synthapp.Stencil3D()
	bw := machine.BlueWatersP1()
	col := NewCollector(0)
	defer col.Close()
	if _, err := col.Counters(context.Background(), app, 64, bw, CollectorConfig{Sampling: FixedSampling(-5, 0)}); err == nil {
		t.Error("negative sample length accepted")
	}
}

func TestCollectorCloseSemantics(t *testing.T) {
	app := synthapp.Stencil3D()
	bw := machine.BlueWatersP1()
	col := NewCollector(2)
	if _, err := col.Counters(context.Background(), app, 64, bw, fastCfg); err != nil {
		t.Fatalf("Counters before Close: %v", err)
	}
	col.Close()
	col.Close() // idempotent
	if _, err := col.Counters(context.Background(), app, 64, bw, fastCfg); !errors.Is(err, ErrArenaClosed) {
		t.Errorf("Counters after Close = %v, want ErrArenaClosed", err)
	}
	if _, err := col.Collect(context.Background(), app, 64, bw, nil, fastCfg); !errors.Is(err, ErrArenaClosed) {
		t.Errorf("Collect after Close = %v, want ErrArenaClosed", err)
	}
}

// TestCancellationPromptNoGoroutineLeak covers the satellite requirement:
// cancelling mid-collection returns well within 100ms and the collector's
// workers wind down completely on Close (goleak-style final-state check).
func TestCancellationPromptNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	app := synthapp.UH3D()
	bw := machine.BlueWatersP1()
	col := NewCollector(4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// A sample far larger than any test budget: only cancellation ends it.
	huge := CollectorConfig{Sampling: FixedSampling(1<<30, 1<<30)}
	errc := make(chan error, 1)
	go func() {
		_, err := col.Counters(ctx, app, 2048, bw, huge)
		errc <- err
	}()
	time.Sleep(30 * time.Millisecond) // let workers enter the hot loop
	start := time.Now()
	cancel()
	select {
	case err := <-errc:
		if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
			t.Errorf("cancellation took %v, want <100ms", elapsed)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("collection did not return after cancellation")
	}
	col.Close()
	// Final-state goroutine check: allow the runtime a moment to retire
	// the worker goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after Close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestArenaRunOrderIndependentReduction(t *testing.T) {
	a := NewArena(4)
	defer a.Close()
	out := make([]int, 100)
	err := a.run(context.Background(), len(out), func(i int, _ *scratch) error {
		out[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("slot %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestArenaRunPrefersRealErrorOverCancellation(t *testing.T) {
	a := NewArena(2)
	defer a.Close()
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := a.run(ctx, 8, func(i int, _ *scratch) error {
		if i == 3 {
			cancel()
			return boom
		}
		return ctx.Err()
	})
	if !errors.Is(err, boom) {
		t.Errorf("run = %v, want the real error", err)
	}
}

// TestStreamRefsAllocationFree is the per-reference zero-allocation claim:
// once a worker's scratch is warm, streaming any number of references
// through the simulator allocates nothing.
func TestStreamRefsAllocationFree(t *testing.T) {
	app := synthapp.UH3D()
	works, err := app.Work(2048)
	if err != nil {
		t.Fatal(err)
	}
	var s scratch
	bw := machine.BlueWatersP1()
	sim, err := s.simulator(bw)
	if err != nil {
		t.Fatal(err)
	}
	buf := s.slab(slabLen)
	ctx := context.Background()
	for i := range works {
		gen := works[i].Gen
		streamRefs(ctx, sim, gen, buf, 8192) // warm the batch path
		if allocs := testing.AllocsPerRun(5, func() {
			if _, err := streamRefs(ctx, sim, gen, buf, 65536); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("block %s: streamRefs allocated %.1f objects per 65536 refs, want 0", works[i].Spec.Func, allocs)
		}
	}
}

// TestScratchSimulatorReuse checks the geometry-keyed reuse: same hierarchy
// reuses (and flushes) the worker simulator, a different one rebuilds it.
func TestScratchSimulatorReuse(t *testing.T) {
	var s scratch
	bw := machine.BlueWatersP1()
	sim1, err := s.simulator(bw)
	if err != nil {
		t.Fatal(err)
	}
	sim1.Access(0)
	sim2, err := s.simulator(bw)
	if err != nil {
		t.Fatal(err)
	}
	if sim1 != sim2 {
		t.Error("same geometry did not reuse the simulator")
	}
	if c := sim2.Counters(); c.Refs != 0 {
		t.Errorf("reused simulator not flushed: %d refs", c.Refs)
	}
	kr := machine.Kraken()
	sim3, err := s.simulator(kr)
	if err != nil {
		t.Fatal(err)
	}
	if sim3 == sim1 {
		t.Error("different geometry reused the simulator")
	}
	if got, want := len(sim3.Counters().LevelHits), len(kr.Caches); got != want {
		t.Errorf("rebuilt simulator has %d levels, want %d", got, want)
	}
	// Same geometry as bw but with the prefetcher: must rebuild, not reuse.
	sim4, err := s.simulator(bw)
	if err != nil {
		t.Fatal(err)
	}
	sim5, err := s.simulator(machine.WithPrefetch(bw))
	if err != nil {
		t.Fatal(err)
	}
	if sim5 == sim4 {
		t.Error("prefetch variant reused the non-prefetching simulator")
	}
}
