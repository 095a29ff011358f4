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
// drifts from it, and BenchmarkCollect times it as the serial baseline.
func referenceCounters(t testing.TB, app *synthapp.App, p int, target machine.Config, cfg CollectorConfig) []BlockCounters {
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
// across arena sizes, and with the prefetcher on.
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
	sizes := []int{1, 3, 8}
	cols := make([]*Collector, len(sizes))
	for i, n := range sizes {
		cols[i] = NewCollector(n)
		defer cols[i].Close()
	}
	for _, tc := range cases {
		want := referenceCounters(t, tc.app, tc.cores, tc.target, cfg)
		for i, col := range cols {
			got, err := col.Counters(context.Background(), tc.app, tc.cores, tc.target, cfg)
			if err != nil {
				t.Fatalf("%s@%d on %s: %v", tc.app.Name(), tc.cores, tc.target.Name, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s@%d on %s: batched path on %d workers diverges from serial reference",
					tc.app.Name(), tc.cores, tc.target.Name, sizes[i])
			}
		}
	}
}

// BenchmarkCollect contrasts the serial reference path with the batched
// and parallel collectors on a Table-1 workload. serial is
// referenceCounters (a fresh simulator per block, one Access per address,
// no arena); batched runs the slab path on a one-worker arena; parallel
// adds the arena sharding on one worker per CPU (wall-clock gains require
// GOMAXPROCS > 1).
func BenchmarkCollect(b *testing.B) {
	app := synthapp.UH3D()
	bw := machine.BlueWatersP1()
	cfg := CollectorConfig{Sampling: FixedSampling(100_000, 200_000)}
	bench := func(b *testing.B, counters func() []BlockCounters) {
		var refs int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, c := range counters() {
				refs += int64(c.Counters.Refs)
			}
		}
		b.StopTimer()
		if b.N > 0 {
			b.ReportMetric(float64(refs)/float64(b.N), "sample-refs/op")
		}
	}
	b.Run("serial", func(b *testing.B) {
		bench(b, func() []BlockCounters { return referenceCounters(b, app, 2048, bw, cfg) })
	})
	for _, run := range []struct {
		name    string
		workers int
	}{{"batched", 1}, {"parallel", 0}} {
		b.Run(run.name, func(b *testing.B) {
			col := NewCollector(run.workers)
			defer col.Close()
			bench(b, func() []BlockCounters {
				cs, err := col.Counters(context.Background(), app, 2048, bw, cfg)
				if err != nil {
					b.Fatal(err)
				}
				return cs
			})
		})
	}
}
