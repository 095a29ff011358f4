package machine

import (
	"bytes"
	"math"
	"path/filepath"
	"sync"
	"testing"

	"tracex/internal/cache"
)

func TestPredefinedConfigsValidate(t *testing.T) {
	for _, name := range Names() {
		cfg, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s invalid: %v", name, err)
		}
		if cfg.Name != name {
			t.Errorf("ByName(%s) returned %s", name, cfg.Name)
		}
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestTableIIISystemsShareDeepCaches(t *testing.T) {
	a, b := SystemA12KB(), SystemB56KB()
	if a.Caches[0].SizeBytes != 12<<10 || b.Caches[0].SizeBytes != 56<<10 {
		t.Fatalf("L1 sizes: %d, %d", a.Caches[0].SizeBytes, b.Caches[0].SizeBytes)
	}
	for i := 1; i < len(a.Caches); i++ {
		if a.Caches[i] != b.Caches[i] {
			t.Errorf("level %d differs between Table III systems", i)
		}
	}
	// Building the modified configs must not mutate the base config.
	if BlueWatersP1().Caches[0].SizeBytes != 32<<10 {
		t.Error("SystemA/B construction corrupted BlueWatersP1")
	}
}

func TestConfigValidateRejectsBadConfigs(t *testing.T) {
	base := Kraken()
	mutations := []func(*Config){
		func(c *Config) { c.Name = "" },
		func(c *Config) { c.ClockGHz = 0 },
		func(c *Config) { c.Caches = nil },
		func(c *Config) { c.CacheLatency = c.CacheLatency[:1] },
		func(c *Config) { c.CacheLatency = []float64{3, 2, 1} },
		func(c *Config) { c.CacheLatency = []float64{0, 15, 40} },
		func(c *Config) { c.MemLatencyCycles = 5 },
		func(c *Config) { c.MemBandwidthGBs = 0 },
		func(c *Config) { c.FLOPsPerCycle = 0 },
		func(c *Config) { c.IssueWidth = 0 },
		func(c *Config) { c.MLP = 0.5 },
		func(c *Config) { c.Network.BandwidthGBs = 0 },
		func(c *Config) { c.Network.LatencyUS = -1 },
	}
	for i, mut := range mutations {
		c := base
		c.Caches = append([]cache.LevelConfig(nil), base.Caches...)
		c.CacheLatency = append([]float64(nil), base.CacheLatency...)
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestConfigDerivedRates(t *testing.T) {
	c := Kraken()
	if got, want := c.FLOPSPerSecond(), 2.6e9*4; got != want {
		t.Errorf("FLOPSPerSecond = %g, want %g", got, want)
	}
	if got := c.CycleSeconds() * c.ClockGHz * 1e9; got < 0.999 || got > 1.001 {
		t.Errorf("CycleSeconds inconsistent: %g", got)
	}
}

func testProfile() *Profile {
	cfg := Opteron2L()
	return &Profile{
		Machine: cfg,
		Surface: []machine2Point{
			{HitRates: []float64{1.0, 1.0}, WorkingSetBytes: 16 << 10, StrideBytes: 8, BandwidthGBs: 20},
			{HitRates: []float64{0.5, 1.0}, WorkingSetBytes: 128 << 10, StrideBytes: 8, BandwidthGBs: 8},
			{HitRates: []float64{0.1, 0.9}, WorkingSetBytes: 512 << 10, StrideBytes: 8, BandwidthGBs: 4},
			{HitRates: []float64{0.05, 0.1}, WorkingSetBytes: 8 << 20, StrideBytes: 8, BandwidthGBs: 1.5},
		},
	}
}

// machine2Point aliases SurfacePoint to keep the literal table compact.
type machine2Point = SurfacePoint

func TestProfileValidate(t *testing.T) {
	p := testProfile()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	bad := testProfile()
	bad.Surface[0].HitRates = []float64{1.0}
	if err := bad.Validate(); err == nil {
		t.Error("wrong hit-rate arity accepted")
	}
	bad = testProfile()
	bad.Surface[1].BandwidthGBs = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero bandwidth accepted")
	}
	bad = testProfile()
	bad.Surface[2].HitRates = []float64{0.9, 0.1} // non-monotone cumulative
	if err := bad.Validate(); err == nil {
		t.Error("non-monotone hit rates accepted")
	}
	bad = testProfile()
	bad.Surface = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty surface accepted")
	}
}

func TestLookupBandwidthInterpolates(t *testing.T) {
	p := testProfile()
	// Between the 0.5 and 1.0 L1 hit-rate points: bandwidth between 8 and 20.
	bw, err := p.LookupBandwidth([]float64{0.75, 1.0})
	if err != nil {
		t.Fatalf("LookupBandwidth: %v", err)
	}
	if bw <= 8 || bw >= 20 {
		t.Errorf("interpolated bandwidth %g outside (8, 20)", bw)
	}
}

func TestLookupBandwidthMonotoneInLastLevelRate(t *testing.T) {
	// The last-level rate decides how many references fall out to memory,
	// the costliest locality class, so bandwidth must be monotone along
	// that axis.
	p := testProfile()
	prev := 0.0
	for _, hr := range []float64{0.1, 0.4, 0.7, 0.95, 1.0} {
		l1 := hr * 0.5
		bw, err := p.LookupBandwidth([]float64{l1, hr})
		if err != nil {
			t.Fatalf("LookupBandwidth(%g): %v", hr, err)
		}
		if bw < prev-1e-9 {
			t.Errorf("bandwidth not monotone in last-level rate at %g: %g < %g", hr, bw, prev)
		}
		prev = bw
	}
}

func TestLookupBandwidthErrors(t *testing.T) {
	p := testProfile()
	if _, err := p.LookupBandwidth([]float64{0.5}); err == nil {
		t.Error("wrong arity accepted")
	}
	empty := &Profile{Machine: Opteron2L()}
	if _, err := empty.LookupBandwidth([]float64{0.5, 0.5}); err == nil {
		t.Error("empty surface accepted")
	}
}

func TestModelLookupRecoversLatencyStructure(t *testing.T) {
	// Build a synthetic surface directly from a known per-class cost model
	// and verify the fitted-model lookup reproduces held-out queries.
	cfg := Opteron2L()
	cfg.MemBandwidthGBs = 1000 // keep the sustained-bandwidth ceiling out of play
	clockHz := cfg.ClockGHz * 1e9
	cost := []float64{1.0, 4.0, 60.0} // cycles/ref served by L1, L2, memory
	mkPoint := func(h1, h2 float64) SurfacePoint {
		fr := localFractions([]float64{h1, h2})
		var cpr float64
		for i, f := range fr {
			cpr += f * cost[i]
		}
		return SurfacePoint{
			HitRates:     []float64{h1, h2},
			BandwidthGBs: ProbeElemBytes * clockHz / cpr / 1e9,
		}
	}
	p := &Profile{Machine: cfg}
	for _, h := range [][2]float64{
		{1, 1}, {0.875, 1}, {0.875, 0.875}, {0.5, 0.5}, {0.9, 0.95},
		{0.99, 0.99}, {0.7, 0.9}, {0.2, 0.3},
	} {
		p.Surface = append(p.Surface, mkPoint(h[0], h[1]))
	}
	// Held-out queries: the fitted model must reproduce the generating
	// cost model (ceiling never binds with these coefficients).
	for _, q := range [][2]float64{{0.95, 0.97}, {0.6, 0.8}, {0.875, 0.98}} {
		want := mkPoint(q[0], q[1]).BandwidthGBs
		got, err := p.LookupBandwidth([]float64{q[0], q[1]})
		if err != nil {
			t.Fatalf("LookupBandwidth(%v): %v", q, err)
		}
		if e := math.Abs(got-want) / want; e > 0.02 {
			t.Errorf("query %v: bw %g, want %g (%.1f%% off)", q, got, want, 100*e)
		}
	}
}

func TestModelLookupAppliesBandwidthCeiling(t *testing.T) {
	// A machine with huge MLP-equivalent latency coefficients but a tiny
	// sustained memory bandwidth: streaming queries must be capped.
	cfg := Opteron2L()
	cfg.MemBandwidthGBs = 0.5
	clockHz := cfg.ClockGHz * 1e9
	p := &Profile{Machine: cfg}
	// Latency-only surface implying ~4 cycles per memory reference (far
	// faster than 0.5 GB/s allows for 64-byte lines).
	for _, h := range [][2]float64{{1, 1}, {0.5, 0.75}, {0, 0}} {
		fr := localFractions([]float64{h[0], h[1]})
		cpr := fr[0]*1 + fr[1]*2 + fr[2]*4
		p.Surface = append(p.Surface, SurfacePoint{
			HitRates:     []float64{h[0], h[1]},
			BandwidthGBs: ProbeElemBytes * clockHz / cpr / 1e9,
		})
	}
	bw, err := p.LookupBandwidth([]float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	ceiling := cfg.MemBandwidthGBs * ProbeElemBytes / float64(cfg.Caches[0].LineSize)
	if math.Abs(bw-ceiling) > 1e-9 {
		t.Errorf("streaming bw %g, want ceiling %g", bw, ceiling)
	}
}

func TestLocalFractions(t *testing.T) {
	fr := localFractions([]float64{0.5, 0.8, 0.9})
	want := []float64{0.5, 0.3, 0.1, 0.1}
	for i := range want {
		if math.Abs(fr[i]-want[i]) > 1e-12 {
			t.Errorf("fr[%d] = %g, want %g", i, fr[i], want[i])
		}
	}
	// Degenerate (non-monotone) input is clamped, never negative.
	fr = localFractions([]float64{0.9, 0.5})
	for i, f := range fr {
		if f < 0 {
			t.Errorf("fr[%d] = %g negative", i, f)
		}
	}
}

// The memory model is fitted once per profile, on its first lookup, and
// concurrent lookups share that one fit; a fit that fails fails every
// lookup the same way.
func TestModelFitOncePerProfile(t *testing.T) {
	p := testProfile()
	want, err := testProfile().LookupBandwidth([]float64{0.9, 0.95})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]float64, 4)
	errs := make([]error, len(got))
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = p.LookupBandwidth([]float64{0.9, 0.95})
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil || got[i] != want {
			t.Errorf("lookup %d = %g, %v, want %g", i, got[i], errs[i], want)
		}
	}
	coef := p.coef
	if _, err := p.LookupBandwidth([]float64{0.5, 0.9}); err != nil {
		t.Fatal(err)
	}
	if &p.coef[0] != &coef[0] {
		t.Error("a later lookup refitted the model")
	}

	// One probe cannot determine a coefficient per locality class.
	single := &Profile{Machine: Opteron2L(), Surface: testProfile().Surface[:1]}
	_, err1 := single.LookupBandwidth([]float64{0.9, 0.95})
	_, err2 := single.LookupBandwidth([]float64{0.9, 0.95})
	if err1 == nil || err2 != err1 {
		t.Errorf("singular fit: lookups returned %v then %v, want one error twice", err1, err2)
	}
}

func TestFPRate(t *testing.T) {
	p := testProfile()
	peak := p.Machine.FLOPSPerSecond()
	if got := p.FPRate(p.Machine.IssueWidth * 2); got != peak {
		t.Errorf("saturated ILP rate = %g, want peak %g", got, peak)
	}
	if got := p.FPRate(p.Machine.IssueWidth / 2); got != peak/2 {
		t.Errorf("half ILP rate = %g, want %g", got, peak/2)
	}
	if got := p.FPRate(0); got != peak*0.05 {
		t.Errorf("zero ILP rate = %g, want floor %g", got, peak*0.05)
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	p := testProfile()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	q, err := ReadProfileJSON(&buf)
	if err != nil {
		t.Fatalf("ReadProfileJSON: %v", err)
	}
	if q.Machine.Name != p.Machine.Name || len(q.Surface) != len(p.Surface) {
		t.Errorf("round trip mismatch: %s/%d vs %s/%d",
			q.Machine.Name, len(q.Surface), p.Machine.Name, len(p.Surface))
	}
	for i := range p.Surface {
		if q.Surface[i].BandwidthGBs != p.Surface[i].BandwidthGBs {
			t.Errorf("surface point %d bandwidth mismatch", i)
		}
	}
}

func TestReadProfileJSONRejectsInvalid(t *testing.T) {
	if _, err := ReadProfileJSON(bytes.NewBufferString("{not json")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := ReadProfileJSON(bytes.NewBufferString(`{"machine":{"Name":""},"surface":[]}`)); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestSaveLoadProfile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "profile.json")
	p := testProfile()
	if err := SaveProfile(p, path); err != nil {
		t.Fatalf("SaveProfile: %v", err)
	}
	q, err := LoadProfile(path)
	if err != nil {
		t.Fatalf("LoadProfile: %v", err)
	}
	if q.Machine.Name != p.Machine.Name {
		t.Errorf("loaded machine %s, want %s", q.Machine.Name, p.Machine.Name)
	}
	if _, err := LoadProfile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	if err := SaveProfile(p, filepath.Join(dir, "no/such/dir/p.json")); err == nil {
		t.Error("bad path accepted")
	}
}

func TestProfileJSONPreservesPrefetchFields(t *testing.T) {
	p := &Profile{
		Machine: WithPrefetch(Opteron2L()),
		Surface: []SurfacePoint{{
			HitRates: []float64{0.99, 0.99}, BandwidthGBs: 5,
			ResidentFraction: 0.5, PrefetchPerRef: 0.125,
		}},
	}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadProfileJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Machine.Prefetch {
		t.Error("Prefetch flag lost in round trip")
	}
	if q.Surface[0].PrefetchPerRef != 0.125 || q.Surface[0].ResidentFraction != 0.5 {
		t.Errorf("probe fields lost: %+v", q.Surface[0])
	}
}

// TestPredefinedLevelsHaveTwoSets pins the condition under which the cache
// simulator's recency order equals the age-stamped order it replaced with
// the prefetcher on: a prefetched line and the demand line that triggered
// it are adjacent lines, so they share a set only on a one-set level.
func TestPredefinedLevelsHaveTwoSets(t *testing.T) {
	for _, name := range Names() {
		for _, n := range []string{name, name + "+pf"} {
			cfg, err := ByName(n)
			if err != nil {
				t.Fatal(err)
			}
			for _, lv := range cfg.Caches {
				if lv.Sets() < 2 {
					t.Errorf("%s level %s has %d sets, want at least 2", n, lv.Name, lv.Sets())
				}
			}
		}
	}
}
