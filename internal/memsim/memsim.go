// Package memsim provides the cycle-level memory-hierarchy timing model.
// It converts cache-simulator hit/miss accounting into time on a target
// machine, combining a latency component (per-level load-to-use latencies
// overlapped by the machine's memory-level parallelism) with a main-memory
// bandwidth floor. MultiMAPS uses it to "measure" bandwidth surfaces, and
// the detailed execution simulator uses it to produce ground-truth runtimes.
package memsim

import (
	"fmt"

	"tracex/internal/cache"
	"tracex/internal/machine"
)

// Model computes memory timing for a specific machine configuration.
type Model struct {
	cfg machine.Config
	// cyclesPerMemByte converts memory traffic to cycles under the
	// sustained-bandwidth constraint.
	cyclesPerMemByte float64
}

// New builds a timing model for cfg.
func New(cfg machine.Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	clockHz := cfg.ClockGHz * 1e9
	bwBytes := cfg.MemBandwidthGBs * 1e9
	return &Model{cfg: cfg, cyclesPerMemByte: clockHz / bwBytes}, nil
}

// Cycles returns the simulated cycle cost of the references summarized in c.
// The cost is the maximum of a latency term — every reference pays the
// load-to-use latency of the level that served it, overlapped by the
// machine's MLP — and a bandwidth term: references that reached main memory
// move whole cache lines and cannot exceed sustained memory bandwidth.
func (m *Model) Cycles(c cache.Counters) (float64, error) {
	if len(c.LevelHits) != len(m.cfg.Caches) {
		return 0, fmt.Errorf("memsim: counters have %d levels, machine %s has %d",
			len(c.LevelHits), m.cfg.Name, len(m.cfg.Caches))
	}
	var latency float64
	for i, h := range c.LevelHits {
		latency += float64(h) * m.cfg.CacheLatency[i]
	}
	latency += float64(c.MemAccesses) * m.cfg.MemLatencyCycles
	latency /= m.cfg.MLP
	lineBytes := float64(m.cfg.Caches[0].LineSize)
	// Prefetch fills consume memory bandwidth alongside demand misses.
	bwFloor := float64(c.MemAccesses+c.PrefetchFills) * lineBytes * m.cyclesPerMemByte
	if bwFloor > latency {
		return bwFloor, nil
	}
	return latency, nil
}

// BlockCycles prices a batch of counter snapshots in one call — the memory
// cost of every block of a collection — returning one cycle count per
// snapshot. It fails on the first snapshot whose level count does not match
// the machine, identifying it by index.
func (m *Model) BlockCycles(cs []cache.Counters) ([]float64, error) {
	out := make([]float64, len(cs))
	for i := range cs {
		cycles, err := m.Cycles(cs[i])
		if err != nil {
			return nil, fmt.Errorf("block %d: %w", i, err)
		}
		out[i] = cycles
	}
	return out, nil
}

// Seconds converts a cycle count on this machine to seconds.
func (m *Model) Seconds(cycles float64) float64 { return cycles * m.cfg.CycleSeconds() }

// BandwidthGBs returns the effective bandwidth in GB/s achieved by a stream
// whose accounting is c, where each reference moves bytesPerRef bytes of
// payload. This is the quantity MultiMAPS reports for each probe point.
func (m *Model) BandwidthGBs(c cache.Counters, bytesPerRef float64) (float64, error) {
	if c.Refs == 0 {
		return 0, fmt.Errorf("memsim: no references in counters")
	}
	if bytesPerRef <= 0 {
		return 0, fmt.Errorf("memsim: non-positive bytes per reference %g", bytesPerRef)
	}
	cycles, err := m.Cycles(c)
	if err != nil {
		return 0, err
	}
	if cycles == 0 {
		return 0, fmt.Errorf("memsim: zero-cycle stream")
	}
	seconds := m.Seconds(cycles)
	totalBytes := float64(c.Refs) * bytesPerRef
	return totalBytes / seconds / 1e9, nil
}

// FPCycles returns the cycle cost of executing fpOps floating-point
// operations in a block exhibiting the given ILP: the achievable throughput
// is the machine's peak scaled by how much of the issue width the ILP fills.
func (m *Model) FPCycles(fpOps, ilp float64) float64 {
	if fpOps <= 0 {
		return 0
	}
	eff := ilp / m.cfg.IssueWidth
	if eff > 1 {
		eff = 1
	}
	if eff < 0.05 {
		eff = 0.05
	}
	return fpOps / (m.cfg.FLOPsPerCycle * eff)
}
