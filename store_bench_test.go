// Benchmarks for the persistent signature store's headline trade-off:
// collecting a signature (streaming the simulators) vs reading the same
// signature back from disk after a restart. The Table-I UH3D workload at
// its input scale, with reduced sampling so the cold path stays
// benchmarkable; the cold/warm ratio is the store's value proposition
// (see EXPERIMENTS.md).
package tracex_test

import (
	"context"
	"testing"

	"tracex"
)

const (
	warmStartApp   = "uh3d"
	warmStartCores = 1024
)

var warmStartOpt = tracex.CollectOptions{Sampling: tracex.FixedSampling(60_000, 150_000)}

func warmStartFixtures(b *testing.B) (*tracex.App, tracex.MachineConfig) {
	b.Helper()
	app, err := tracex.LoadApp(warmStartApp)
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := tracex.LoadMachine("bluewaters")
	if err != nil {
		b.Fatal(err)
	}
	return app, cfg
}

// BenchmarkStoreWarmStartCold is the baseline: no store, caching disabled,
// every iteration re-simulates the collection.
func BenchmarkStoreWarmStartCold(b *testing.B) {
	app, cfg := warmStartFixtures(b)
	eng := tracex.NewEngine(tracex.WithCacheSize(0))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.CollectSignatureFrom(ctx, app, warmStartCores, cfg, warmStartOpt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreWarmStartDisk measures the restarted process: a fresh
// engine (empty memory cache) over a populated store directory serves the
// collection from disk. Each iteration builds a new engine, so the memo
// tier never answers and every read is a real decode.
func BenchmarkStoreWarmStartDisk(b *testing.B) {
	app, cfg := warmStartFixtures(b)
	dir := b.TempDir()
	seed := tracex.NewEngine(tracex.WithStore(dir))
	ctx := context.Background()
	if _, prov, err := seed.CollectSignatureFrom(ctx, app, warmStartCores, cfg, warmStartOpt); err != nil {
		b.Fatal(err)
	} else if prov != tracex.FromCollected {
		b.Fatalf("seeding collection came from %q", prov)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := tracex.NewEngine(tracex.WithStore(dir))
		_, prov, err := eng.CollectSignatureFrom(ctx, app, warmStartCores, cfg, warmStartOpt)
		if err != nil {
			b.Fatal(err)
		}
		if prov != tracex.FromDisk {
			b.Fatalf("iteration %d served from %q, want disk", i, prov)
		}
	}
}
