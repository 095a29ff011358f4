package machine

import (
	"math"
	"testing"
)

// pfSurface builds a synthetic surface mixing prefetch-free and prefetching
// probes generated from a known cost model:
// cycles/ref = Σ local_i·cost_i + pfPerRef·pfCost.
func pfSurface(cfg Config, cost []float64, pfCost float64) *Profile {
	clockHz := cfg.ClockGHz * 1e9
	p := &Profile{Machine: cfg}
	mk := func(h1, h2, pf float64) SurfacePoint {
		fr := localFractions([]float64{h1, h2})
		cpr := fr[0]*cost[0] + fr[1]*cost[1] + fr[2]*cost[2] + pf*pfCost
		return SurfacePoint{
			HitRates:       []float64{h1, h2},
			PrefetchPerRef: pf,
			BandwidthGBs:   ProbeElemBytes * clockHz / cpr / 1e9,
		}
	}
	for _, pt := range [][3]float64{
		{1, 1, 0}, {0.875, 1, 0}, {0.5, 0.75, 0}, {0.2, 0.3, 0},
		// Prefetching probes: near-perfect demand rates but real traffic.
		{0.99, 1, 0.125}, {1, 1, 0.125}, {0.95, 0.97, 0.06}, {0.9, 0.9, 0.03},
	} {
		p.Surface = append(p.Surface, mk(pt[0], pt[1], pt[2]))
	}
	return p
}

func TestModelLookupDistinguishesPrefetchTraffic(t *testing.T) {
	cfg := Opteron2L()
	cfg.MemBandwidthGBs = 1000 // keep the ceiling out of play
	cost := []float64{1.0, 4.0, 60.0}
	const pfCost = 57.0
	p := pfSurface(cfg, cost, pfCost)
	clockHz := cfg.ClockGHz * 1e9

	// Two queries with identical demand hit rates but different prefetch
	// traffic must get very different bandwidths.
	resident, err := p.LookupBandwidthPF([]float64{1, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := p.LookupBandwidthPF([]float64{1, 1}, 0.125)
	if err != nil {
		t.Fatal(err)
	}
	wantResident := ProbeElemBytes * clockHz / cost[0] / 1e9
	wantStreamed := ProbeElemBytes * clockHz / (cost[0] + 0.125*pfCost) / 1e9
	if e := math.Abs(resident-wantResident) / wantResident; e > 0.02 {
		t.Errorf("resident bw %g, want %g", resident, wantResident)
	}
	if e := math.Abs(streamed-wantStreamed) / wantStreamed; e > 0.02 {
		t.Errorf("streamed bw %g, want %g", streamed, wantStreamed)
	}
	if streamed >= resident {
		t.Errorf("prefetch traffic did not reduce bandwidth: %g vs %g", streamed, resident)
	}
}

func TestModelLookupPrefetchCeiling(t *testing.T) {
	// Prefetch traffic counts against the sustained-bandwidth ceiling.
	cfg := Opteron2L()
	cfg.MemBandwidthGBs = 0.5
	p := pfSurface(cfg, []float64{1, 2, 4}, 3)
	bw, err := p.LookupBandwidthPF([]float64{1, 1}, 1.0) // one line per ref
	if err != nil {
		t.Fatal(err)
	}
	ceiling := cfg.MemBandwidthGBs * ProbeElemBytes / float64(cfg.Caches[0].LineSize)
	if bw > ceiling+1e-9 {
		t.Errorf("bw %g exceeds prefetch-traffic ceiling %g", bw, ceiling)
	}
}

func TestModelLookupZeroPrefetchBackwardCompatible(t *testing.T) {
	// On a surface with no prefetching probes, LookupBandwidth (pf=0) must
	// behave exactly as before the schema extension.
	p := testProfile()
	a, err := p.LookupBandwidth([]float64{0.9, 0.95})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.LookupBandwidthPF([]float64{0.9, 0.95}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("LookupBandwidth %g != LookupBandwidthPF(0) %g", a, b)
	}
}
