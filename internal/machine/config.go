// Package machine describes target systems for the PMaC-style prediction
// framework: the hardware configuration (cache geometry, core clock, memory
// and network parameters) and the machine profile — the set of benchmark-
// derived rates (the MultiMAPS bandwidth surface, floating-point issue
// rates, network latency/bandwidth) that the convolution maps application
// signatures onto.
package machine

import (
	"fmt"
	"strconv"
	"strings"

	"tracex/internal/cache"
)

// NetworkConfig parameterizes the interconnect model used when replaying
// communication events (a LogGP-style latency/bandwidth model).
type NetworkConfig struct {
	// LatencyUS is the one-way small-message latency in microseconds.
	LatencyUS float64
	// BandwidthGBs is the per-link sustained bandwidth in GB/s.
	BandwidthGBs float64
	// OverheadUS is the per-message CPU send/receive overhead in
	// microseconds (the "o" of LogGP).
	OverheadUS float64
}

// Validate checks the network parameters.
func (n NetworkConfig) Validate() error {
	if n.LatencyUS < 0 || n.BandwidthGBs <= 0 || n.OverheadUS < 0 {
		return fmt.Errorf("machine: bad network config %+v", n)
	}
	return nil
}

// Config is the full hardware description of a system. It plays the role of
// the system parameters that the paper's machine profile is measured on: the
// cache simulator mimics Caches, and MultiMAPS probes the timing model
// parameterized by the latency/bandwidth fields.
type Config struct {
	// Name identifies the system ("kraken", "bluewaters", ...).
	Name string
	// ClockGHz is the core clock.
	ClockGHz float64
	// Caches lists the cache levels nearest-first.
	Caches []cache.LevelConfig
	// CacheLatency[i] is the load-to-use latency of Caches[i] in cycles.
	CacheLatency []float64
	// MemLatencyCycles is the main-memory access latency in cycles.
	MemLatencyCycles float64
	// MemBandwidthGBs is the sustained main-memory bandwidth per core.
	MemBandwidthGBs float64
	// FLOPsPerCycle is the peak floating-point throughput per core.
	FLOPsPerCycle float64
	// IssueWidth is the maximum instructions issued per cycle; together
	// with a block's measured ILP it bounds achievable arithmetic rates.
	IssueWidth float64
	// MLP is the memory-level parallelism: the average number of
	// outstanding misses the core sustains, which divides effective
	// memory latency.
	MLP float64
	// Prefetch enables the hardware next-line prefetcher in the simulated
	// memory system (a design knob for hardware exploration, like the
	// Table III L1-size candidates).
	Prefetch bool
	// Network describes the interconnect.
	Network NetworkConfig
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("machine: empty name")
	}
	if c.ClockGHz <= 0 {
		return fmt.Errorf("machine %s: non-positive clock %g", c.Name, c.ClockGHz)
	}
	if len(c.Caches) == 0 {
		return fmt.Errorf("machine %s: no cache levels", c.Name)
	}
	if len(c.CacheLatency) != len(c.Caches) {
		return fmt.Errorf("machine %s: %d latencies for %d cache levels", c.Name, len(c.CacheLatency), len(c.Caches))
	}
	for i, lv := range c.Caches {
		if err := lv.Validate(); err != nil {
			return fmt.Errorf("machine %s: %w", c.Name, err)
		}
		if c.CacheLatency[i] <= 0 {
			return fmt.Errorf("machine %s: non-positive latency for %s", c.Name, lv.Name)
		}
		if i > 0 && c.CacheLatency[i] < c.CacheLatency[i-1] {
			return fmt.Errorf("machine %s: latency decreases from %s to %s", c.Name, c.Caches[i-1].Name, lv.Name)
		}
	}
	if c.MemLatencyCycles <= c.CacheLatency[len(c.CacheLatency)-1] {
		return fmt.Errorf("machine %s: memory latency %g not beyond last cache level", c.Name, c.MemLatencyCycles)
	}
	if c.MemBandwidthGBs <= 0 {
		return fmt.Errorf("machine %s: non-positive memory bandwidth", c.Name)
	}
	if c.FLOPsPerCycle <= 0 || c.IssueWidth <= 0 {
		return fmt.Errorf("machine %s: non-positive FP throughput or issue width", c.Name)
	}
	if c.MLP < 1 {
		return fmt.Errorf("machine %s: MLP %g must be ≥1", c.Name, c.MLP)
	}
	return c.Network.Validate()
}

// Fingerprint returns a stable identity string covering every field of the
// configuration. Two configs with equal fingerprints drive identical
// simulations and therefore produce identical profiles and signatures,
// which makes the fingerprint a safe memoization key — unlike Name alone,
// which ad-hoc configs may share while differing in geometry.
//
// Store keys hash it, so its text is fixed: what
// fmt.Sprintf("%s|%g|%v|%g|%g|%g|%g|%g|%t|%+v", c.Name, c.ClockGHz,
// c.CacheLatency, c.MemLatencyCycles, c.MemBandwidthGBs, c.FLOPsPerCycle,
// c.IssueWidth, c.MLP, c.Prefetch, c.Network) followed by "|%+v" of each
// cache level prints. It is written with strconv, which formats a float as
// %g does, because a memory hit and every predict compute it.
func (c Config) Fingerprint() string {
	var buf [320]byte
	b := append(buf[:0], c.Name...)
	b = appendG(append(b, '|'), c.ClockGHz)
	b = append(b, "|["...)
	for i, v := range c.CacheLatency {
		if i > 0 {
			b = append(b, ' ')
		}
		b = appendG(b, v)
	}
	b = append(b, ']')
	for _, v := range [...]float64{c.MemLatencyCycles, c.MemBandwidthGBs, c.FLOPsPerCycle, c.IssueWidth, c.MLP} {
		b = appendG(append(b, '|'), v)
	}
	b = strconv.AppendBool(append(b, '|'), c.Prefetch)
	b = appendG(append(b, "|{LatencyUS:"...), c.Network.LatencyUS)
	b = appendG(append(b, " BandwidthGBs:"...), c.Network.BandwidthGBs)
	b = appendG(append(b, " OverheadUS:"...), c.Network.OverheadUS)
	b = append(b, '}')
	for _, lv := range c.Caches {
		b = append(append(b, "|{Name:"...), lv.Name...)
		b = strconv.AppendInt(append(b, " SizeBytes:"...), int64(lv.SizeBytes), 10)
		b = strconv.AppendInt(append(b, " Assoc:"...), int64(lv.Assoc), 10)
		b = strconv.AppendInt(append(b, " LineSize:"...), int64(lv.LineSize), 10)
		b = append(b, '}')
	}
	return string(b)
}

// appendG appends v as %g formats it.
func appendG(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }

// FLOPSPerSecond returns the peak floating-point rate per core in FLOP/s.
func (c Config) FLOPSPerSecond() float64 { return c.ClockGHz * 1e9 * c.FLOPsPerCycle }

// CycleSeconds returns the duration of one cycle in seconds.
func (c Config) CycleSeconds() float64 { return 1 / (c.ClockGHz * 1e9) }

// Kraken approximates the Cray XT5 (AMD Opteron Istanbul) base system the
// paper collected all application characterizations on.
func Kraken() Config {
	return Config{
		Name:     "kraken",
		ClockGHz: 2.6,
		Caches: []cache.LevelConfig{
			{Name: "L1", SizeBytes: 64 << 10, Assoc: 2, LineSize: 64},
			{Name: "L2", SizeBytes: 512 << 10, Assoc: 16, LineSize: 64},
			{Name: "L3", SizeBytes: 6 << 20, Assoc: 48, LineSize: 64},
		},
		CacheLatency:     []float64{3, 15, 40},
		MemLatencyCycles: 220,
		MemBandwidthGBs:  2.1, // per-core share of socket bandwidth
		FLOPsPerCycle:    4,
		IssueWidth:       3,
		MLP:              4,
		Network:          NetworkConfig{LatencyUS: 6.5, BandwidthGBs: 2.0, OverheadUS: 1.2},
	}
}

// BlueWatersP1 approximates the Phase I NCSA Blue Waters node (POWER7) used
// as the paper's prediction target system.
func BlueWatersP1() Config {
	return Config{
		Name:     "bluewaters",
		ClockGHz: 3.8,
		Caches: []cache.LevelConfig{
			{Name: "L1", SizeBytes: 32 << 10, Assoc: 8, LineSize: 64},
			{Name: "L2", SizeBytes: 256 << 10, Assoc: 8, LineSize: 64},
			{Name: "L3", SizeBytes: 4 << 20, Assoc: 8, LineSize: 64},
		},
		CacheLatency:     []float64{2, 8, 25},
		MemLatencyCycles: 350,
		MemBandwidthGBs:  4.0,
		FLOPsPerCycle:    8,
		IssueWidth:       6,
		MLP:              6,
		Network:          NetworkConfig{LatencyUS: 2.5, BandwidthGBs: 4.0, OverheadUS: 0.8},
	}
}

// Opteron2L is the two-cache-level Opteron processor whose MultiMAPS
// surface appears as Figure 1 in the paper.
func Opteron2L() Config {
	return Config{
		Name:     "opteron2",
		ClockGHz: 2.2,
		Caches: []cache.LevelConfig{
			{Name: "L1", SizeBytes: 64 << 10, Assoc: 2, LineSize: 64},
			{Name: "L2", SizeBytes: 1 << 20, Assoc: 16, LineSize: 64},
		},
		CacheLatency:     []float64{3, 12},
		MemLatencyCycles: 180,
		MemBandwidthGBs:  1.8,
		FLOPsPerCycle:    2,
		IssueWidth:       3,
		MLP:              3,
		Network:          NetworkConfig{LatencyUS: 8, BandwidthGBs: 1.0, OverheadUS: 2},
	}
}

// XE6 approximates a Cray XE6 node (AMD Interlagos): small L1, large L2
// slice, modest clock.
func XE6() Config {
	return Config{
		Name:     "xe6",
		ClockGHz: 2.3,
		Caches: []cache.LevelConfig{
			{Name: "L1", SizeBytes: 16 << 10, Assoc: 4, LineSize: 64},
			{Name: "L2", SizeBytes: 1 << 20, Assoc: 16, LineSize: 64},
			{Name: "L3", SizeBytes: 2 << 20, Assoc: 16, LineSize: 64},
		},
		CacheLatency:     []float64{4, 21, 45},
		MemLatencyCycles: 195,
		MemBandwidthGBs:  2.6,
		FLOPsPerCycle:    4,
		IssueWidth:       4,
		MLP:              5,
		Network:          NetworkConfig{LatencyUS: 1.8, BandwidthGBs: 3.0, OverheadUS: 0.6},
	}
}

// SandyBridge approximates an Intel Sandy Bridge-EP core (the commodity
// cluster node of the paper's era): fast caches and a strong memory system.
func SandyBridge() Config {
	return Config{
		Name:     "sandybridge",
		ClockGHz: 2.6,
		Caches: []cache.LevelConfig{
			{Name: "L1", SizeBytes: 32 << 10, Assoc: 8, LineSize: 64},
			{Name: "L2", SizeBytes: 256 << 10, Assoc: 8, LineSize: 64},
			{Name: "L3", SizeBytes: 2560 << 10, Assoc: 20, LineSize: 64},
		},
		CacheLatency:     []float64{4, 12, 30},
		MemLatencyCycles: 200,
		MemBandwidthGBs:  5.0,
		FLOPsPerCycle:    8,
		IssueWidth:       6,
		MLP:              10,
		Network:          NetworkConfig{LatencyUS: 1.5, BandwidthGBs: 5.0, OverheadUS: 0.5},
	}
}

// SystemA12KB is the Table III exploration target with a small (12 KB) L1;
// its L2 and L3 are identical to SystemB56KB's.
func SystemA12KB() Config {
	c := BlueWatersP1()
	c.Name = "systemA-12KB-L1"
	c.Caches = append([]cache.LevelConfig(nil), c.Caches...)
	c.Caches[0] = cache.LevelConfig{Name: "L1", SizeBytes: 12 << 10, Assoc: 3, LineSize: 64}
	return c
}

// SystemB56KB is the Table III exploration target with a large (56 KB) L1.
func SystemB56KB() Config {
	c := BlueWatersP1()
	c.Name = "systemB-56KB-L1"
	c.Caches = append([]cache.LevelConfig(nil), c.Caches...)
	c.Caches[0] = cache.LevelConfig{Name: "L1", SizeBytes: 56 << 10, Assoc: 7, LineSize: 64}
	return c
}

// WithPrefetch returns a copy of cfg with the hardware next-line
// prefetcher enabled and "+pf" appended to the name.
func WithPrefetch(cfg Config) Config {
	cfg.Prefetch = true
	cfg.Name += "+pf"
	return cfg
}

// ByName returns a predefined configuration by name. Appending "+pf" to any
// predefined name selects the prefetching variant.
func ByName(name string) (Config, error) {
	base := name
	pf := false
	if strings.HasSuffix(name, "+pf") {
		base = strings.TrimSuffix(name, "+pf")
		pf = true
	}
	for _, c := range []Config{
		Kraken(), BlueWatersP1(), Opteron2L(), XE6(), SandyBridge(),
		SystemA12KB(), SystemB56KB(),
	} {
		if c.Name == base {
			if pf {
				return WithPrefetch(c), nil
			}
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("machine: unknown system %q", name)
}

// Names lists the predefined configuration names.
func Names() []string {
	return []string{
		"kraken", "bluewaters", "opteron2", "xe6", "sandybridge",
		"systemA-12KB-L1", "systemB-56KB-L1",
	}
}
