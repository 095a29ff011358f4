package pebil

import (
	"context"

	"math"
	"testing"

	"tracex/internal/machine"
	"tracex/internal/synthapp"
	"tracex/internal/trace"
)

// fastOpt keeps unit-test simulation cheap.
var fastOpt = CollectorConfig{Sampling: FixedSampling(60_000, 120_000)}

// collectCounters and collect run one collection on a throwaway collector,
// standing in for the removed package-level convenience functions.
func collectCounters(ctx context.Context, app *synthapp.App, p int, m machine.Config, cfg CollectorConfig) ([]BlockCounters, error) {
	c := NewCollector(0)
	defer c.Close()
	return c.Counters(ctx, app, p, m, cfg)
}

func collect(ctx context.Context, app *synthapp.App, p int, m machine.Config, ranks []int, cfg CollectorConfig) (*trace.Signature, error) {
	c := NewCollector(0)
	defer c.Close()
	return c.Collect(ctx, app, p, m, ranks, cfg)
}

func TestCollectCountersBasics(t *testing.T) {
	app := synthapp.Stencil3D()
	bw := machine.BlueWatersP1()
	cs, err := collectCounters(context.Background(), app, 64, bw, fastOpt)
	if err != nil {
		t.Fatalf("CollectCounters: %v", err)
	}
	if len(cs) != len(app.Blocks()) {
		t.Fatalf("got %d blocks", len(cs))
	}
	for _, c := range cs {
		if c.Counters.Refs == 0 {
			t.Errorf("block %s has empty sample", c.Spec.Func)
		}
		rates := c.Counters.CumulativeHitRates()
		if len(rates) != len(bw.Caches) {
			t.Errorf("block %s has %d rates", c.Spec.Func, len(rates))
		}
		for i := 1; i < len(rates); i++ {
			if rates[i] < rates[i-1] {
				t.Errorf("block %s rates not monotone: %v", c.Spec.Func, rates)
			}
		}
	}
}

func TestCollectCountersDeterministicAcrossParallelism(t *testing.T) {
	app := synthapp.Stencil3D()
	bw := machine.BlueWatersP1()
	on := func(workers int) []BlockCounters {
		c := NewCollector(workers)
		defer c.Close()
		cs, err := c.Counters(context.Background(), app, 64, bw, fastOpt)
		if err != nil {
			t.Fatal(err)
		}
		return cs
	}
	a, b := on(1), on(8)
	for i := range a {
		if a[i].Counters.Refs != b[i].Counters.Refs ||
			a[i].Counters.MemAccesses != b[i].Counters.MemAccesses {
			t.Errorf("block %d counters differ across parallelism", i)
		}
		for l := range a[i].Counters.LevelHits {
			if a[i].Counters.LevelHits[l] != b[i].Counters.LevelHits[l] {
				t.Errorf("block %d level %d hits differ", i, l)
			}
		}
	}
}

func TestCollectSignatureDefaultRanks(t *testing.T) {
	app := synthapp.SPECFEM3D()
	bw := machine.BlueWatersP1()
	sig, err := collect(context.Background(), app, 96, bw, nil, fastOpt)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if err := sig.Validate(); err != nil {
		t.Fatalf("signature invalid: %v", err)
	}
	if len(sig.Traces) != app.NumClasses() {
		t.Errorf("got %d traces, want one per class (%d)", len(sig.Traces), app.NumClasses())
	}
	// The dominant trace is rank 0 (class factor 1.0).
	if d := sig.DominantTrace(); d == nil || d.Rank != 0 {
		t.Errorf("dominant trace rank = %v, want 0", d)
	}
}

func TestCollectScalesByLoadFactor(t *testing.T) {
	app := synthapp.UH3D()
	bw := machine.BlueWatersP1()
	sig, err := collect(context.Background(), app, 1024, bw, []int{0, 1}, fastOpt)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	f := app.LoadFactor(1)
	for i := range sig.Traces[0].Blocks {
		b0 := sig.Traces[0].Blocks[i].FV
		b1 := sig.Traces[1].Blocks[i].FV
		if math.Abs(b1.MemOps-f*b0.MemOps) > 1e-6*b0.MemOps {
			t.Errorf("block %d: rank1 mem ops %g, want %g×%g", i, b1.MemOps, f, b0.MemOps)
		}
		// Hit rates are pattern properties: identical across classes.
		for l := range b0.HitRates {
			if b0.HitRates[l] != b1.HitRates[l] {
				t.Errorf("block %d hit rates differ across classes", i)
			}
		}
	}
}

func TestCollectRankValidation(t *testing.T) {
	app := synthapp.Stencil3D()
	bw := machine.BlueWatersP1()
	if _, err := collect(context.Background(), app, 64, bw, []int{64}, fastOpt); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if _, err := collect(context.Background(), app, 64, bw, []int{1, 1}, fastOpt); err == nil {
		t.Error("duplicate rank accepted")
	}
	bad := bw
	bad.ClockGHz = 0
	if _, err := collect(context.Background(), app, 64, bad, nil, fastOpt); err == nil {
		t.Error("invalid machine accepted")
	}
	if _, err := collect(context.Background(), app, 1, bw, nil, fastOpt); err != nil {
		// 1 core is below stencil3d's range: expected failure.
		return
	}
}

func TestTableIIIResidencyContrast(t *testing.T) {
	// The SPECFEM3D flux_lookup_table block: resident (≥99 %) in the 56 KB
	// L1, thrashing (≤92 %) in the 12 KB L1, and essentially constant
	// across core counts on both.
	app := synthapp.SPECFEM3D()
	counts := []int{96, 384, 1536, 6144}
	for _, sys := range []machine.Config{machine.SystemA12KB(), machine.SystemB56KB()} {
		var rates []float64
		for _, p := range counts {
			cs, err := collectCounters(context.Background(), app, p, sys, fastOpt)
			if err != nil {
				t.Fatalf("CollectCounters(%s, %d): %v", sys.Name, p, err)
			}
			var found bool
			for _, c := range cs {
				if c.Spec.Func == "flux_lookup_table" {
					rates = append(rates, c.Counters.CumulativeHitRates()[0])
					found = true
				}
			}
			if !found {
				t.Fatal("flux_lookup_table missing")
			}
		}
		for i := 1; i < len(rates); i++ {
			if math.Abs(rates[i]-rates[0]) > 0.02 {
				t.Errorf("%s: L1 rate varies with cores: %v", sys.Name, rates)
			}
		}
		if sys.Name == "systemA-12KB-L1" {
			if rates[0] > 0.93 {
				t.Errorf("12KB L1 rate %.3f, want thrashing (<0.93)", rates[0])
			}
		} else if rates[0] < 0.99 {
			t.Errorf("56KB L1 rate %.3f, want resident (≥0.99)", rates[0])
		}
	}
}

func TestTableIIHitRatesRiseWithCoreCount(t *testing.T) {
	// The UH3D field_update block: as the core count rises the shrinking
	// field region drains into L3 — cumulative L3 hit rate rises while L1
	// stays flat.
	app := synthapp.UH3D()
	bw := machine.BlueWatersP1()
	// Steady-state rates for multi-megabyte random regions need the full
	// warm-up, unlike the other tests.
	steadyOpt := CollectorConfig{Sampling: FixedSampling(400_000, 2_000_000)}
	var l1, l3 []float64
	for _, p := range []int{1024, 2048, 4096, 8192} {
		cs, err := collectCounters(context.Background(), app, p, bw, steadyOpt)
		if err != nil {
			t.Fatalf("CollectCounters(%d): %v", p, err)
		}
		for _, c := range cs {
			if c.Spec.Func == "field_update" {
				r := c.Counters.CumulativeHitRates()
				l1 = append(l1, r[0])
				l3 = append(l3, r[2])
			}
		}
	}
	for i := 1; i < len(l1); i++ {
		if math.Abs(l1[i]-l1[0]) > 0.02 {
			t.Errorf("L1 rate drifts: %v", l1)
		}
		if l3[i] < l3[i-1]-0.005 {
			t.Errorf("L3 rate not rising: %v", l3)
		}
	}
	if l3[len(l3)-1]-l3[0] < 0.02 {
		t.Errorf("L3 rise too small: %v", l3)
	}
}

func BenchmarkCollectCounters(b *testing.B) {
	app := synthapp.UH3D()
	bw := machine.BlueWatersP1()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := collectCounters(context.Background(), app, 2048, bw, fastOpt); err != nil {
			b.Fatal(err)
		}
	}
}
