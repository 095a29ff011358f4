// Benchmarks for the Engine orchestrator: the serial-vs-parallel
// CollectInputs comparison (the engine's fan-out should beat one worker on
// any multi-core runner) and the cache-hit fast path.
package tracex_test

import (
	"context"
	"fmt"
	"testing"

	"tracex"
)

// benchCollectOpt keeps one collection cheap enough to repeat while leaving
// enough simulation work for the pool to amortize goroutine overhead.
// Per-block parallelism is pinned to 1 so the engine's worker pool is the
// only concurrency under test.
var benchCollectOpt = tracex.CollectOptions{
	Sampling: tracex.FixedSampling(60_000, 150_000),
	Workers:  1,
}

var benchInputCounts = []int{64, 96, 128, 192, 256}

// benchCollectInputs measures CollectInputs on an engine with the given
// worker count (0 keeps the engine's one-worker-per-CPU default). Caching
// is disabled so every iteration simulates.
func benchCollectInputs(b *testing.B, workers int) {
	app, err := tracex.LoadApp("stencil3d")
	if err != nil {
		b.Fatal(err)
	}
	target, err := tracex.LoadMachine("bluewaters")
	if err != nil {
		b.Fatal(err)
	}
	opts := []tracex.EngineOption{tracex.WithCacheSize(0)}
	if workers > 0 {
		opts = append(opts, tracex.WithParallelism(workers))
	}
	eng := tracex.NewEngine(opts...)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.CollectInputs(ctx, app, benchInputCounts, target, benchCollectOpt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectInputsSerial is the one-worker baseline.
func BenchmarkCollectInputsSerial(b *testing.B) { benchCollectInputs(b, 1) }

// BenchmarkCollectInputsEngine uses the default pool (one worker per CPU);
// compare against BenchmarkCollectInputsSerial on a multi-core runner.
func BenchmarkCollectInputsEngine(b *testing.B) { benchCollectInputs(b, 0) }

// BenchmarkCollectSignatureCached measures the memoized fast path: every
// iteration after the first is a cache hit with zero simulation.
func BenchmarkCollectSignatureCached(b *testing.B) {
	app, err := tracex.LoadApp("stencil3d")
	if err != nil {
		b.Fatal(err)
	}
	target, err := tracex.LoadMachine("bluewaters")
	if err != nil {
		b.Fatal(err)
	}
	eng := tracex.NewEngine()
	ctx := context.Background()
	if _, err := eng.CollectSignature(ctx, app, 64, target, benchCollectOpt); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.CollectSignature(ctx, app, 64, target, benchCollectOpt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := eng.Stats(); st.Collections != 1 {
		b.Fatalf("cached benchmark ran %d collections", st.Collections)
	}
}

// BenchmarkPredictWarm measures the warm-predict path the serving daemon
// runs for a cached identity: a memory-tier signature hit, then convolution
// and replay. It cycles through 16 stencil3d identities at 1008..1038 ranks
// on bluewaters, collected (with the machine profile) before the timer
// starts.
func BenchmarkPredictWarm(b *testing.B) {
	app, err := tracex.LoadApp("stencil3d")
	if err != nil {
		b.Fatal(err)
	}
	target, err := tracex.LoadMachine("bluewaters")
	if err != nil {
		b.Fatal(err)
	}
	opt := tracex.CollectOptions{Sampling: tracex.FixedSampling(20_000, 20_000)}
	eng := tracex.NewEngine()
	defer eng.Close()
	ctx := context.Background()
	cores := make([]int, 16)
	for k := range cores {
		cores[k] = 1008 + 2*k
		if _, err := eng.CollectSignature(ctx, app, cores[k], target, opt); err != nil {
			b.Fatal(err)
		}
	}
	// The machine profile is memoized on first use; build it untimed.
	if _, err := eng.Profile(ctx, target); err != nil {
		b.Fatal(err)
	}
	events := eng.Registry().Counter("psins.events")
	before := events.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig, err := eng.CollectSignature(ctx, app, cores[i%len(cores)], target, opt)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Predict(ctx, tracex.PredictRequest{Signature: sig, App: app, Machine: &target}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(events.Value()-before)/float64(b.N), "events/op")
	if st := eng.Stats(); st.Collections != uint64(len(cores)) {
		b.Fatalf("warm benchmark ran %d collections, want %d", st.Collections, len(cores))
	}
}

// BenchmarkPredictPaperScale measures one warm predict at each of the
// paper's target scales on bluewaters: specfem3d@6144, uh3d@8192 and
// stencil3d@8192. The machine profile and the three signatures are built
// before the timer starts, so each op is the convolution, the compile of
// the application's communication program and its replay.
func BenchmarkPredictPaperScale(b *testing.B) {
	target, err := tracex.LoadMachine("bluewaters")
	if err != nil {
		b.Fatal(err)
	}
	eng := tracex.NewEngine()
	defer eng.Close()
	ctx := context.Background()
	if _, err := eng.Profile(ctx, target); err != nil {
		b.Fatal(err)
	}
	opt := tracex.CollectOptions{Sampling: tracex.FixedSampling(20_000, 20_000)}
	events := eng.Registry().Counter("psins.events")
	for _, c := range []struct {
		app   string
		cores int
	}{{"specfem3d", 6144}, {"uh3d", 8192}, {"stencil3d", 8192}} {
		app, err := tracex.LoadApp(c.app)
		if err != nil {
			b.Fatal(err)
		}
		sig, err := eng.CollectSignature(ctx, app, c.cores, target, opt)
		if err != nil {
			b.Fatal(err)
		}
		req := tracex.PredictRequest{Signature: sig, App: app, Machine: &target}
		b.Run(fmt.Sprintf("%s@%d", c.app, c.cores), func(b *testing.B) {
			before := events.Value()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Predict(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(events.Value()-before)/float64(b.N), "events/op")
		})
	}
}
