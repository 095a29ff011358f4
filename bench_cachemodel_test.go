package tracex

import (
	"context"
	"fmt"
	"testing"
	"time"

	"tracex/internal/pebil"
)

// The cache-model benchmarks quantify the tentpole win of the reuse-distance
// redesign: a geometry sweep (the Table III cache-design use case) costs one
// simulation per geometry under the exact model, but one geometry-free
// recording plus a microsecond analytical derivation per geometry under the
// reuse model. Results are recorded in BENCH_cachemodel.json (regenerate
// with `make bench-cachemodel`).

// benchSweepOpt mirrors the cachedesign example's collection depth.
var benchSweepOpt = CollectOptions{Sampling: FixedSampling(200_000, 400_000)}

const benchSweepCores = 96

// sweepCandidates builds the 8 candidate hierarchies of the cachedesign
// example: L1 sizes spanning 8–64 KB at 4 KB per way over the bluewaters
// baseline.
func sweepCandidates(tb testing.TB) []MachineConfig {
	tb.Helper()
	base, err := LoadMachine("bluewaters")
	if err != nil {
		tb.Fatal(err)
	}
	kbs := []int{8, 12, 16, 24, 32, 48, 56, 64}
	out := make([]MachineConfig, len(kbs))
	for i, kb := range kbs {
		c := base
		c.Name = fmt.Sprintf("candidate-%dKB-L1", kb)
		c.Caches = append([]CacheLevel(nil), base.Caches...)
		l1 := c.Caches[0]
		l1.SizeBytes = kb << 10
		l1.Assoc = kb / 4
		c.Caches[0] = l1
		out[i] = c
	}
	return out
}

// BenchmarkGeometrySweepExact re-simulates the application once per
// candidate geometry — the pre-redesign cost of a cache-design sweep. A
// fresh collector per run keeps every simulation honest (no memoization).
func BenchmarkGeometrySweepExact(b *testing.B) {
	app := testApp(b, "specfem3d")
	candidates := sweepCandidates(b)
	col := pebil.NewCollector(0)
	defer col.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sys := range candidates {
			if _, err := col.Collect(context.Background(), app, benchSweepCores, sys, []int{0}, benchSweepOpt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkGeometrySweepAnalytical derives all candidate signatures from one
// stored reuse profile — the post-redesign cost. The recording itself is
// amortized over every geometry ever swept, so it sits outside the timer;
// BenchmarkReuseCollection prices it separately.
func BenchmarkGeometrySweepAnalytical(b *testing.B) {
	app := testApp(b, "specfem3d")
	candidates := sweepCandidates(b)
	col := pebil.NewCollector(0)
	defer col.Close()
	rs, err := col.CollectReuse(context.Background(), app, benchSweepCores, benchSweepOpt)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sys := range candidates {
			if _, err := pebil.SignatureFromReuse(rs, app, sys, []int{0}, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkReuseCollection prices the one-time geometry-free recording the
// analytical sweep amortizes; comparable to a single exact collection.
func BenchmarkReuseCollection(b *testing.B) {
	app := testApp(b, "specfem3d")
	col := pebil.NewCollector(0)
	defer col.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := col.CollectReuse(context.Background(), app, benchSweepCores, benchSweepOpt); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGeometrySweepSpeedup enforces the redesign's acceptance bar: an
// 8-geometry sweep served from one stored reuse profile must beat
// per-geometry re-simulation by at least 5x. The recording that produces
// the stored profile is priced separately — it costs about as much as
// ONE exact collection and is paid once per (app, core count) ever, so it
// amortizes across every geometry and every later process via the store.
func TestGeometrySweepSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison; skipped in -short mode")
	}
	app := testApp(t, "specfem3d")
	candidates := sweepCandidates(t)
	col := pebil.NewCollector(0)
	defer col.Close()

	// The one-time recording producing the stored profile. It is timed the
	// same way as the exact sweep, as a testing.Benchmark average, so the
	// amortization bar compares like with like whatever else the machine
	// runs.
	var rs *ReuseSignature
	record := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var err error
			if rs, err = col.CollectReuse(context.Background(), app, benchSweepCores, benchSweepOpt); err != nil {
				b.Fatal(err)
			}
		}
	})
	if rs == nil {
		t.Fatal("reuse recording failed")
	}
	recordCost := time.Duration(record.NsPerOp())

	exact := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, sys := range candidates {
				if _, err := col.Collect(context.Background(), app, benchSweepCores, sys, []int{0}, benchSweepOpt); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	analytical := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, sys := range candidates {
				if _, err := pebil.SignatureFromReuse(rs, app, sys, []int{0}, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	speedup := float64(exact.NsPerOp()) / float64(analytical.NsPerOp())
	t.Logf("8-geometry sweep: exact %v/op, analytical %v/op from a stored profile (one-time recording %v), speedup %.0fx",
		exact.T/time.Duration(exact.N), analytical.T/time.Duration(analytical.N), recordCost, speedup)
	if speedup < 5 {
		t.Errorf("analytical sweep speedup %.1fx, want >= 5x", speedup)
	}
	// Amortization sanity: recording the profile costs no more than a few
	// exact single-geometry collections, so the redesign wins from the
	// second geometry onward.
	perGeom := time.Duration(exact.NsPerOp()) / time.Duration(len(candidates))
	if recordCost > 4*perGeom {
		t.Errorf("reuse recording %v costs more than 4 exact collections (%v each)", recordCost, perGeom)
	}
}
