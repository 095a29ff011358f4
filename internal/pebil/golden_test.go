package pebil

import (
	"context"
	"reflect"
	"testing"

	"tracex/internal/cache"
	"tracex/internal/machine"
	"tracex/internal/synthapp"
)

// referenceCounters is the frozen serial collection algorithm: a fresh
// simulator per block, one Access per generated address, no batching and no
// worker pool. It reimplements the pre-arena code path verbatim so the
// golden equivalence test fails if the parallel batched pipeline ever
// drifts from it.
func referenceCounters(t *testing.T, app *synthapp.App, p int, target machine.Config, cfg CollectorConfig) []BlockCounters {
	t.Helper()
	works, err := app.Work(p)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]BlockCounters, len(works))
	for i := range works {
		w := &works[i]
		sim, err := cache.NewSimulatorOpts(target.Caches, cache.Options{NextLinePrefetch: target.Prefetch})
		if err != nil {
			t.Fatal(err)
		}
		warm, sample := cfg.Budget(w.Refs, w.WorkingSetBytes)
		for j := 0; j < warm; j++ {
			sim.Access(w.Gen.Next())
		}
		sim.ResetCounters()
		for j := 0; j < sample; j++ {
			sim.Access(w.Gen.Next())
		}
		out[i] = BlockCounters{
			Spec:            w.Spec,
			Refs:            w.Refs,
			WorkingSetBytes: w.WorkingSetBytes,
			Counters:        sim.Counters(),
		}
	}
	return out
}

// TestGoldenEquivalenceWithSerialPath is the acceptance gate for the
// parallel batched pipeline: on the Table-1 applications, every field of
// every block's counters must be bit-identical to the serial reference —
// across worker counts, batch sizes, and with the prefetcher on.
func TestGoldenEquivalenceWithSerialPath(t *testing.T) {
	cfg := CollectorConfig{Sampling: FixedSampling(50_000, 150_000)}
	cases := []struct {
		app    *synthapp.App
		cores  int
		target machine.Config
	}{
		{synthapp.SPECFEM3D(), 96, machine.BlueWatersP1()},
		{synthapp.UH3D(), 1024, machine.BlueWatersP1()},
		{synthapp.SPECFEM3D(), 384, machine.WithPrefetch(machine.SandyBridge())},
	}
	col, err := NewCollector(WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	for _, tc := range cases {
		want := referenceCounters(t, tc.app, tc.cores, tc.target, cfg)
		for _, run := range []CollectorConfig{
			{Sampling: cfg.Sampling, Workers: 8, BatchSize: 4096},
			{Sampling: cfg.Sampling, Workers: 2, BatchSize: 1009},
		} {
			got, err := col.Counters(context.Background(), tc.app, tc.cores, tc.target, run)
			if err != nil {
				t.Fatalf("%s@%d on %s: %v", tc.app.Name(), tc.cores, tc.target.Name, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s@%d on %s: parallel path (workers=%d batch=%d) diverges from serial reference",
					tc.app.Name(), tc.cores, tc.target.Name, run.Workers, run.BatchSize)
			}
		}
	}
}

// BenchmarkCollect contrasts the serial unbatched configuration with the
// batched and parallel ones on a Table-1 workload. The serial sub-benchmark
// is the pre-redesign cost model (one worker, one address per call);
// batched isolates the slab win; parallel adds the arena sharding
// (wall-clock gains require GOMAXPROCS > 1).
func BenchmarkCollect(b *testing.B) {
	app := synthapp.UH3D()
	bw := machine.BlueWatersP1()
	base := CollectorConfig{Sampling: FixedSampling(100_000, 200_000)}
	runs := []struct {
		name string
		cfg  CollectorConfig
	}{
		{"serial", CollectorConfig{Sampling: base.Sampling, Workers: 1, BatchSize: 1}},
		{"batched", CollectorConfig{Sampling: base.Sampling, Workers: 1}},
		{"parallel", CollectorConfig{Sampling: base.Sampling}},
	}
	for _, run := range runs {
		b.Run(run.name, func(b *testing.B) {
			col, err := NewCollector()
			if err != nil {
				b.Fatal(err)
			}
			defer col.Close()
			var refs int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cs, err := col.Counters(context.Background(), app, 2048, bw, run.cfg)
				if err != nil {
					b.Fatal(err)
				}
				for _, c := range cs {
					refs += int64(c.Counters.Refs)
				}
			}
			b.StopTimer()
			if b.N > 0 {
				b.ReportMetric(float64(refs)/float64(b.N), "sample-refs/op")
			}
		})
	}
}
