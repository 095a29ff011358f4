package pebil

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"tracex/internal/cache"
	"tracex/internal/machine"
	"tracex/internal/obs"
	"tracex/internal/synthapp"
	"tracex/internal/trace"
)

func TestParseSamplingPolicy(t *testing.T) {
	cases := []struct {
		in   string
		want SamplingPolicy
	}{
		{"", SamplingPolicy{}},
		{"fixed", SamplingPolicy{Mode: SamplingModeFixed}},
		{"fixed:400000", SamplingPolicy{Mode: SamplingModeFixed, SampleRefs: 400_000}},
		{"fixed:100000,warm=50000", SamplingPolicy{Mode: SamplingModeFixed, SampleRefs: 100_000, MaxWarmRefs: 50_000}},
		{"adaptive", SamplingPolicy{Mode: SamplingModeAdaptive, ClusterBlocks: true}},
		{"adaptive:0.1", SamplingPolicy{Mode: SamplingModeAdaptive, TargetRelErr: 0.1, ClusterBlocks: true}},
		{"adaptive:0.05,pilot=5000,min=5000,max=50000,cluster=off",
			SamplingPolicy{Mode: SamplingModeAdaptive, TargetRelErr: 0.05, PilotRefs: 5000, MinRefs: 5000, MaxRefs: 50_000}},
		{"adaptive,cluster=on", SamplingPolicy{Mode: SamplingModeAdaptive, ClusterBlocks: true}},
	}
	for _, tc := range cases {
		got, err := ParseSamplingPolicy(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("Parse(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
		if tc.in == "" {
			continue
		}
		// String renders the canonical normalized form, and parsing it back
		// lands on the same normalized policy (the wire echo contract).
		s := got.String()
		back, err := ParseSamplingPolicy(s)
		if err != nil {
			t.Errorf("Parse(%q.String() = %q): %v", tc.in, s, err)
			continue
		}
		if back.Normalized() != got.Normalized() {
			t.Errorf("round trip of %q via %q: %+v != %+v", tc.in, s, back.Normalized(), got.Normalized())
		}
		if back.String() != s {
			t.Errorf("String not a fixed point: %q then %q", s, back.String())
		}
	}

	bad := []string{
		"bogus", "fixed:0", "fixed:-5", "fixed:x", "fixed,warm", "fixed,warm=0",
		"fixed,pilot=5", "adaptive:0", "adaptive:2", "adaptive:x", "adaptive:NaN", "adaptive:nan,pilot=20000",
		"adaptive,cluster=maybe", "adaptive,warm=5",
		"adaptive,min=100000,max=50000", "adaptive,pilot=60000,max=50000",
	}
	for _, s := range bad {
		if _, err := ParseSamplingPolicy(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestSamplingPolicyValidate(t *testing.T) {
	invalid := []SamplingPolicy{
		{SampleRefs: 1}, // fields without a mode
		{Mode: SamplingModeFixed, TargetRelErr: 0.1},   // adaptive field in fixed mode
		{Mode: SamplingModeFixed, ClusterBlocks: true}, // adaptive field in fixed mode
		{Mode: SamplingModeFixed, SampleRefs: -1},
		{Mode: SamplingModeAdaptive, SampleRefs: 1}, // fixed field in adaptive mode
		{Mode: SamplingModeAdaptive, TargetRelErr: -0.1},
		{Mode: SamplingModeAdaptive, TargetRelErr: 1.5},
		{Mode: SamplingModeAdaptive, TargetRelErr: math.NaN()},
		{Mode: SamplingModeAdaptive, MinRefs: 500_000},   // exceeds default MaxRefs
		{Mode: SamplingModeAdaptive, PilotRefs: 500_000}, // exceeds default MaxRefs
		{Mode: "stratified"},
	}
	for _, p := range invalid {
		if err := p.Validate(); err == nil {
			t.Errorf("policy %+v accepted", p)
		}
	}
	valid := []SamplingPolicy{
		{}, FixedSampling(0, 0), FixedSampling(123, 456), AdaptiveSampling(0), AdaptiveSampling(0.2),
	}
	for _, p := range valid {
		if err := p.Validate(); err != nil {
			t.Errorf("policy %+v rejected: %v", p, err)
		}
	}

	// Config-level combination rules.
	if err := (CollectorConfig{Sampling: AdaptiveSampling(0), SharedHierarchy: true}).Validate(); err == nil {
		t.Error("adaptive + SharedHierarchy accepted")
	}
	err := (CollectorConfig{Sampling: AdaptiveSampling(0), Model: ModelAnalytical}).Validate()
	if !errors.Is(err, cache.ErrModelUnsupported) {
		t.Errorf("adaptive + analytical: got %v, want ErrModelUnsupported", err)
	}
	col, err := NewCollector()
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	if _, err := col.CollectReuse(context.Background(), synthapp.UH3D(), 64,
		CollectorConfig{Sampling: AdaptiveSampling(0)}); !errors.Is(err, cache.ErrModelUnsupported) {
		t.Errorf("CollectReuse with adaptive policy: got %v, want ErrModelUnsupported", err)
	}
}

// TestEffectiveSampling pins the truthful wire echo: what a configuration
// reports must be the policy it actually resolves to.
func TestEffectiveSampling(t *testing.T) {
	cases := []struct {
		cfg  CollectorConfig
		want string
	}{
		{CollectorConfig{}, "fixed:400000,warm=2000000"},
		{CollectorConfig{Sampling: FixedSampling(50_000, 0)}, "fixed:50000,warm=2000000"},
		{CollectorConfig{Sampling: FixedSampling(50_000, 100_000)}, "fixed:50000,warm=100000"},
		{CollectorConfig{Sampling: AdaptiveSampling(0)}, "adaptive:0.05,pilot=20000,min=20000,max=400000,cluster=on"},
		{CollectorConfig{Sampling: AdaptiveSampling(0.1)}, "adaptive:0.1,pilot=20000,min=20000,max=400000,cluster=on"},
	}
	for _, tc := range cases {
		if got := tc.cfg.EffectiveSampling().String(); got != tc.want {
			t.Errorf("EffectiveSampling of %+v: %q, want %q", tc.cfg, got, tc.want)
		}
	}
}

// adaptiveTestPolicy keeps the adaptive unit tests fast while exercising
// the pilot, refinement and clustering paths.
const adaptiveTestPolicy = "adaptive:0.05,pilot=8000,min=8000,max=80000,cluster=on"

// TestAdaptiveDeterministicAcrossScheduling pins the adaptive collection's
// scheduling independence: Workers and BatchSize must not change a single
// bit of the signature or its uncertainty.
func TestAdaptiveDeterministicAcrossScheduling(t *testing.T) {
	pol, err := ParseSamplingPolicy(adaptiveTestPolicy)
	if err != nil {
		t.Fatal(err)
	}
	app := synthapp.UH3D()
	bw := machine.BlueWatersP1()
	col, err := NewCollector(WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	var sigs []*trace.Signature
	for _, run := range []CollectorConfig{
		{Sampling: pol, Workers: 8, BatchSize: 4096},
		{Sampling: pol, Workers: 2, BatchSize: 1009},
		{Sampling: pol, Workers: 1, BatchSize: 1 << 15},
	} {
		sig, err := col.Collect(context.Background(), app, 1024, bw, nil, run)
		if err != nil {
			t.Fatalf("workers=%d batch=%d: %v", run.Workers, run.BatchSize, err)
		}
		sigs = append(sigs, sig)
	}
	for i := 1; i < len(sigs); i++ {
		if !reflect.DeepEqual(sigs[0], sigs[i]) {
			t.Errorf("adaptive collection differs between scheduling run 0 and %d", i)
		}
	}
	if sigs[0].Uncertainty == nil {
		t.Fatal("adaptive signature carries no uncertainty")
	}
}

// TestAdaptiveAccuracyAndErrorBounds compares an adaptive collection against
// the fixed default-budget collection on Table-1 applications: the hit
// rates must agree closely, and the advertised per-block standard errors
// must cover the observed deviations (the property the per-element
// confidence intervals rest on). Both collections are deterministic, so
// this is not a flaky statistical test.
func TestAdaptiveAccuracyAndErrorBounds(t *testing.T) {
	pol, err := ParseSamplingPolicy(adaptiveTestPolicy)
	if err != nil {
		t.Fatal(err)
	}
	col, err := NewCollector(WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	cases := []struct {
		app   *synthapp.App
		cores int
	}{
		{synthapp.UH3D(), 1024},
		{synthapp.SPECFEM3D(), 96},
	}
	bw := machine.BlueWatersP1()
	for _, tc := range cases {
		truth, err := col.Collect(context.Background(), tc.app, tc.cores, bw, []int{0}, CollectorConfig{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := col.Collect(context.Background(), tc.app, tc.cores, bw, []int{0},
			CollectorConfig{Sampling: pol})
		if err != nil {
			t.Fatal(err)
		}
		unc := got.Uncertainty
		if unc == nil || unc.Dof < 1 {
			t.Fatalf("%s: missing or degenerate uncertainty (%+v)", tc.app.Name(), unc)
		}
		vars := map[uint64][]float64{}
		for i, b := range unc.Blocks {
			if i > 0 && unc.Blocks[i-1].ID >= b.ID {
				t.Fatalf("%s: uncertainty blocks not sorted by ID", tc.app.Name())
			}
			for _, v := range b.Vars {
				if v < 0 || math.IsNaN(v) {
					t.Fatalf("%s: block %d has invalid variance %g", tc.app.Name(), b.ID, v)
				}
			}
			vars[b.ID] = b.Vars
		}
		tb, gb := truth.DominantTrace().Blocks, got.DominantTrace().Blocks
		if len(tb) != len(gb) {
			t.Fatalf("%s: block count differs: %d vs %d", tc.app.Name(), len(tb), len(gb))
		}
		for j := range tb {
			for l := range tb[j].FV.HitRates {
				d := math.Abs(tb[j].FV.HitRates[l] - gb[j].FV.HitRates[l])
				if d > 0.02 {
					t.Errorf("%s block %d L%d: hit rate drifts %.4f (fixed %.4f adaptive %.4f)",
						tc.app.Name(), gb[j].ID, l+1, d, tb[j].FV.HitRates[l], gb[j].FV.HitRates[l])
				}
				v, ok := vars[gb[j].ID]
				if !ok {
					continue // exact block: simulated in full, no sampling error
				}
				se := math.Sqrt(v[trace.NumScalarElements+l])
				// The fixed reference is itself a sample; allow a small floor
				// on top of the adaptive standard error.
				if d > 5*se+0.01 {
					t.Errorf("%s block %d L%d: deviation %.4f outside 5×SE %.4f + 0.01",
						tc.app.Name(), gb[j].ID, l+1, d, 5*se)
				}
			}
		}
	}
}

// TestAdaptiveReducesSimulatedRefs is the in-tree speedup gate: on a
// Table-1 workload the adaptive policy must simulate at least 3× fewer
// references (warm-up included) than the fixed default budget. The CI
// bench target asserts the same on the full application set.
func TestAdaptiveReducesSimulatedRefs(t *testing.T) {
	app := synthapp.UH3D()
	bw := machine.BlueWatersP1()
	col, err := NewCollector(WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	simulated := func(cfg CollectorConfig) uint64 {
		reg := obs.New()
		ctx := obs.Into(context.Background(), reg)
		if _, err := col.Collect(ctx, app, 1024, bw, []int{0}, cfg); err != nil {
			t.Fatal(err)
		}
		total := reg.Counter("pebil.warm_refs").Value() +
			reg.Counter("pebil.sample_refs").Value() +
			reg.Counter("pebil.sampling.pilot_refs").Value() +
			reg.Counter("pebil.sampling.refined_refs").Value()
		return total
	}
	fixed := simulated(CollectorConfig{})
	adaptive := simulated(CollectorConfig{Sampling: AdaptiveSampling(0)})
	if adaptive == 0 || fixed == 0 {
		t.Fatalf("counter totals fixed=%d adaptive=%d", fixed, adaptive)
	}
	if ratio := float64(fixed) / float64(adaptive); ratio < 3 {
		t.Errorf("adaptive simulated %d refs vs fixed %d (ratio %.2f, want ≥ 3)", adaptive, fixed, ratio)
	}

	// The subsystem counters must be populated truthfully.
	reg := obs.New()
	ctx := obs.Into(context.Background(), reg)
	if _, err := col.Collect(ctx, app, 1024, bw, []int{0}, CollectorConfig{Sampling: AdaptiveSampling(0)}); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("pebil.sampling.pilot_refs").Value() == 0 {
		t.Error("pilot_refs counter empty")
	}
	if reg.Counter("pebil.blocks").Value() == 0 {
		t.Error("blocks counter empty")
	}
}
