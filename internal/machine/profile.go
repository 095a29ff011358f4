package machine

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"tracex/internal/stats"
)

// SurfacePoint is one measurement of the MultiMAPS bandwidth surface: the
// sustained bandwidth observed for a probe with the given working set and
// stride, together with the cumulative cache hit rates that probe achieved
// on the machine. The (hit rates → bandwidth) mapping is what the
// convolution consults (Figure 1 of the paper).
type SurfacePoint struct {
	WorkingSetBytes uint64    `json:"working_set_bytes"`
	StrideBytes     uint64    `json:"stride_bytes"`
	HitRates        []float64 `json:"hit_rates"`
	BandwidthGBs    float64   `json:"bandwidth_gbs"`
	// ResidentFraction is non-zero for mixed-locality probes: the fraction
	// of references served from a cache-resident region, with the rest
	// streaming from memory. These probes populate the surface between the
	// all-resident and all-streaming extremes.
	ResidentFraction float64 `json:"resident_fraction,omitempty"`
	// PrefetchPerRef is the hardware-prefetcher traffic the probe incurred
	// (lines installed per demand reference). On prefetching machines the
	// demand hit rates alone no longer determine bandwidth — prefetched
	// streams show near-perfect hit rates while still paying full memory
	// traffic — so the lookup must see this dimension.
	PrefetchPerRef float64 `json:"prefetch_per_ref,omitempty"`
}

// Profile is a machine profile: the description of the rates at which a
// machine performs fundamental operations, derived from benchmark probes.
type Profile struct {
	Machine Config         `json:"machine"`
	Surface []SurfacePoint `json:"surface"`

	// fit fits the memory model on the first lookup, once per profile, so
	// profiles can be shared across goroutines (the Engine caches and
	// hands out one *Profile per machine) and later lookups take no lock.
	fit sync.Once
	// coef holds the fitted per-class cycles-per-reference coefficients
	// (one per cache level, then memory, then prefetch traffic), or
	// coefErr why the fit failed.
	coef    []float64
	coefErr error
}

// Validate checks profile consistency.
func (p *Profile) Validate() error {
	if err := p.Machine.Validate(); err != nil {
		return err
	}
	if len(p.Surface) == 0 {
		return fmt.Errorf("machine: profile for %s has an empty surface", p.Machine.Name)
	}
	nl := len(p.Machine.Caches)
	for i, sp := range p.Surface {
		if len(sp.HitRates) != nl {
			return fmt.Errorf("machine: surface point %d has %d hit rates, machine has %d levels", i, len(sp.HitRates), nl)
		}
		if sp.BandwidthGBs <= 0 {
			return fmt.Errorf("machine: surface point %d has non-positive bandwidth", i)
		}
		for j := range sp.HitRates {
			if sp.HitRates[j] < 0 || sp.HitRates[j] > 1 {
				return fmt.Errorf("machine: surface point %d hit rate %d out of [0,1]", i, j)
			}
			if j > 0 && sp.HitRates[j] < sp.HitRates[j-1]-1e-9 {
				return fmt.Errorf("machine: surface point %d has non-monotone cumulative hit rates", i)
			}
		}
	}
	return nil
}

// LookupBandwidth returns the expected sustained memory bandwidth in GB/s
// of a block with the given cumulative hit-rate vector. This is the "find
// where the block falls on the MultiMAPS curve" step of the paper's
// Equation 1 (the memory_BW_j denominator). It evaluates a linear
// cycles-per-reference model fitted over every surface probe, one
// coefficient per locality class (each cache level plus main memory),
// bounded by the machine's sustained memory bandwidth: the
// fitted-memory-model approach of the PMaC framework (Tikir et al., the
// paper's reference [27]).
func (p *Profile) LookupBandwidth(hitRates []float64) (float64, error) {
	return p.LookupBandwidthPF(hitRates, 0)
}

// LookupBandwidthPF is LookupBandwidth for blocks that also carry hardware
// prefetch traffic (lines per demand reference); on machines without a
// prefetcher pass 0.
func (p *Profile) LookupBandwidthPF(hitRates []float64, prefetchPerRef float64) (float64, error) {
	if len(p.Surface) == 0 {
		return 0, fmt.Errorf("machine: empty surface")
	}
	if len(hitRates) != len(p.Machine.Caches) {
		return 0, fmt.Errorf("machine: %d hit rates for %d cache levels", len(hitRates), len(p.Machine.Caches))
	}
	return p.lookupModel(hitRates, prefetchPerRef)
}

// ProbeElemBytes is the payload size of one MultiMAPS probe reference;
// surface bandwidths are payload rates for references of this size.
const ProbeElemBytes = 8

// localFractions converts cumulative hit rates into per-class local
// fractions: the share of references served by each cache level, with the
// main-memory share last. Entries sum to 1.
func localFractions(hitRates []float64) []float64 {
	fr := make([]float64, len(hitRates)+1)
	prev := 0.0
	for i, h := range hitRates {
		f := h - prev
		if f < 0 {
			f = 0
		}
		fr[i] = f
		prev = h
	}
	mem := 1 - prev
	if mem < 0 {
		mem = 0
	}
	fr[len(hitRates)] = mem
	return fr
}

// modelFeatures builds the regression feature vector for one observation:
// per-class local fractions plus the prefetch traffic per reference.
func modelFeatures(hitRates []float64, prefetchPerRef float64) []float64 {
	fr := localFractions(hitRates)
	return append(fr, prefetchPerRef)
}

// fitModel least-squares fits cycles-per-reference against the per-class
// local fractions (plus prefetch traffic) over every surface probe. The
// coefficients are the measured effective cost of serving a reference from
// each locality class — the machine profile's memory model.
func (p *Profile) fitModel() ([]float64, error) {
	n := len(p.Machine.Caches) + 2 // locality classes + memory + prefetch
	ata := make([][]float64, n)
	for i := range ata {
		ata[i] = make([]float64, n)
	}
	atb := make([]float64, n)
	clockHz := p.Machine.ClockGHz * 1e9
	pfSeen := false
	for _, sp := range p.Surface {
		if sp.PrefetchPerRef > 0 {
			pfSeen = true
		}
		ft := modelFeatures(sp.HitRates, sp.PrefetchPerRef)
		// cycles per probe reference implied by the measured bandwidth.
		cpr := ProbeElemBytes * clockHz / (sp.BandwidthGBs * 1e9)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				ata[i][j] += ft[i] * ft[j]
			}
			atb[i] += ft[i] * cpr
		}
	}
	if !pfSeen {
		// No prefetch traffic anywhere on the surface: the prefetch column
		// is all zeros and would make the system singular. Pin its
		// coefficient with a unit ridge row.
		ata[n-1][n-1] += 1
	}
	coef, err := stats.SolveLinear(ata, atb)
	if err != nil {
		return nil, fmt.Errorf("machine: fitting memory model: %w", err)
	}
	for i, c := range coef {
		if c < 0 {
			coef[i] = 0 // numerical artifacts from near-collinear probes
		}
	}
	return coef, nil
}

// lookupModel evaluates the fitted memory model at a hit-rate vector (plus
// prefetch traffic) and applies the machine's sustained-bandwidth ceiling
// for the implied total memory traffic.
func (p *Profile) lookupModel(hitRates []float64, prefetchPerRef float64) (float64, error) {
	p.fit.Do(func() { p.coef, p.coefErr = p.fitModel() })
	if p.coefErr != nil {
		return 0, p.coefErr
	}
	ft := modelFeatures(hitRates, prefetchPerRef)
	var cpr float64
	for i, f := range ft {
		cpr += f * p.coef[i]
	}
	if cpr <= 0 {
		return 0, fmt.Errorf("machine: memory model gave non-positive cost for rates %v", hitRates)
	}
	clockHz := p.Machine.ClockGHz * 1e9
	bw := ProbeElemBytes * clockHz / cpr / 1e9
	// Bandwidth ceiling: demand misses and prefetch fills both move whole
	// lines and cannot exceed the sustained memory bandwidth.
	fr := localFractions(hitRates)
	if traffic := fr[len(fr)-1] + prefetchPerRef; traffic > 0 {
		ceiling := p.Machine.MemBandwidthGBs * ProbeElemBytes /
			(traffic * float64(p.Machine.Caches[0].LineSize))
		if bw > ceiling {
			bw = ceiling
		}
	}
	return bw, nil
}

// FPRate returns the achievable floating-point rate in FLOP/s for a basic
// block exhibiting the given instruction-level parallelism: peak throughput
// scaled by how much of the issue width the block's ILP can fill.
func (p *Profile) FPRate(ilp float64) float64 {
	eff := ilp / p.Machine.IssueWidth
	if eff > 1 {
		eff = 1
	}
	if eff < 0.05 {
		eff = 0.05 // serial dependency floor: one op in flight
	}
	return p.Machine.FLOPSPerSecond() * eff
}

// WriteJSON serializes the profile.
func (p *Profile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// ReadProfileJSON deserializes and validates a profile.
func ReadProfileJSON(r io.Reader) (*Profile, error) {
	var p Profile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("machine: decoding profile: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// SaveProfile writes the profile to a file.
func SaveProfile(p *Profile, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	defer f.Close()
	if err := p.WriteJSON(f); err != nil {
		return fmt.Errorf("machine: writing %s: %w", path, err)
	}
	return f.Close()
}

// LoadProfile reads a profile from a file.
func LoadProfile(path string) (*Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	defer f.Close()
	return ReadProfileJSON(f)
}
