package memsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tracex/internal/cache"
	"tracex/internal/machine"
)

func TestNewRejectsInvalidConfig(t *testing.T) {
	bad := machine.Kraken()
	bad.ClockGHz = 0
	if _, err := New(bad); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestCyclesAllL1Hits(t *testing.T) {
	cfg := machine.Kraken()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := cache.Counters{Refs: 1000, LevelHits: []uint64{1000, 0, 0}}
	cy, err := m.Cycles(c)
	if err != nil {
		t.Fatal(err)
	}
	want := 1000 * cfg.CacheLatency[0] / cfg.MLP
	if cy != want {
		t.Errorf("Cycles = %g, want %g", cy, want)
	}
}

func TestCyclesMemoryLatencyBound(t *testing.T) {
	cfg := machine.Kraken()
	m, _ := New(cfg)
	// A handful of memory references: latency term dominates tiny traffic.
	c := cache.Counters{Refs: 10, LevelHits: []uint64{0, 0, 0}, MemAccesses: 10}
	cy, err := m.Cycles(c)
	if err != nil {
		t.Fatal(err)
	}
	latTerm := 10 * cfg.MemLatencyCycles / cfg.MLP
	if cy < latTerm*0.99 {
		t.Errorf("Cycles = %g, want ≥ latency term %g", cy, latTerm)
	}
}

func TestCyclesBandwidthFloorDominatesForStreams(t *testing.T) {
	// A machine with very high MLP makes the latency term tiny, exposing
	// the bandwidth floor for large streaming traffic.
	cfg := machine.Kraken()
	cfg.MLP = 64
	m, _ := New(cfg)
	const n = 1 << 20
	c := cache.Counters{Refs: n, LevelHits: []uint64{0, 0, 0}, MemAccesses: n}
	cy, err := m.Cycles(c)
	if err != nil {
		t.Fatal(err)
	}
	lineBytes := float64(cfg.Caches[0].LineSize)
	bwFloor := n * lineBytes * (cfg.ClockGHz * 1e9) / (cfg.MemBandwidthGBs * 1e9)
	if cy != bwFloor {
		t.Errorf("Cycles = %g, want bandwidth floor %g", cy, bwFloor)
	}
}

func TestCyclesLevelMismatch(t *testing.T) {
	m, _ := New(machine.Kraken())
	if _, err := m.Cycles(cache.Counters{Refs: 1, LevelHits: []uint64{1}}); err == nil {
		t.Error("level mismatch accepted")
	}
}

func TestBlockCyclesMatchesCycles(t *testing.T) {
	m, _ := New(machine.Kraken())
	cs := []cache.Counters{
		{Refs: 1000, LevelHits: []uint64{1000, 0, 0}},
		{Refs: 500, LevelHits: []uint64{100, 200, 100}, MemAccesses: 100},
		{Refs: 1 << 18, LevelHits: []uint64{0, 0, 0}, MemAccesses: 1 << 18},
	}
	got, err := m.BlockCycles(cs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cs) {
		t.Fatalf("BlockCycles returned %d entries for %d blocks", len(got), len(cs))
	}
	for i, c := range cs {
		want, err := m.Cycles(c)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("block %d: BlockCycles %g, Cycles %g", i, got[i], want)
		}
	}
	cs[1].LevelHits = []uint64{1}
	if _, err := m.BlockCycles(cs); err == nil {
		t.Error("level mismatch inside batch accepted")
	}
}

func TestBandwidthOrdering(t *testing.T) {
	// Effective bandwidth must strictly decrease as the stream's hits move
	// from L1 to memory.
	kr := machine.Kraken()
	m, _ := New(kr)
	const n = 100_000
	mk := func(l1, l2, l3, mem uint64) cache.Counters {
		return cache.Counters{Refs: n, LevelHits: []uint64{l1, l2, l3}, MemAccesses: mem}
	}
	bwL1, err := m.BandwidthGBs(mk(n, 0, 0, 0), 8)
	if err != nil {
		t.Fatal(err)
	}
	bwL2, _ := m.BandwidthGBs(mk(0, n, 0, 0), 8)
	bwL3, _ := m.BandwidthGBs(mk(0, 0, n, 0), 8)
	bwMem, _ := m.BandwidthGBs(mk(0, 0, 0, n), 8)
	if !(bwL1 > bwL2 && bwL2 > bwL3 && bwL3 > bwMem) {
		t.Errorf("bandwidth not ordered: L1=%g L2=%g L3=%g mem=%g", bwL1, bwL2, bwL3, bwMem)
	}
	// Sanity: L1 bandwidth should be many GB/s, memory a small number.
	if bwL1 < 5 {
		t.Errorf("L1 bandwidth %g GB/s implausibly low", bwL1)
	}
	if bwMem > kr.MemBandwidthGBs {
		t.Errorf("memory-bound stream bandwidth %g exceeds sustained %g", bwMem, kr.MemBandwidthGBs)
	}
}

func TestBandwidthErrors(t *testing.T) {
	m, _ := New(machine.Kraken())
	if _, err := m.BandwidthGBs(cache.Counters{LevelHits: []uint64{0, 0, 0}}, 8); err == nil {
		t.Error("zero refs accepted")
	}
	c := cache.Counters{Refs: 10, LevelHits: []uint64{10, 0, 0}}
	if _, err := m.BandwidthGBs(c, 0); err == nil {
		t.Error("zero bytes per ref accepted")
	}
	if _, err := m.BandwidthGBs(cache.Counters{Refs: 1, LevelHits: []uint64{1}}, 8); err == nil {
		t.Error("level mismatch accepted")
	}
}

func TestSeconds(t *testing.T) {
	cfg := machine.Kraken()
	m, _ := New(cfg)
	if got, want := m.Seconds(cfg.ClockGHz*1e9), 1.0; got < 0.999 || got > 1.001 {
		t.Errorf("Seconds(1s of cycles) = %g, want %g", got, want)
	}
}

func TestFPCycles(t *testing.T) {
	cfg := machine.Kraken()
	m, _ := New(cfg)
	// Saturated ILP: peak throughput.
	if got, want := m.FPCycles(1000, cfg.IssueWidth), 1000/cfg.FLOPsPerCycle; got != want {
		t.Errorf("FPCycles = %g, want %g", got, want)
	}
	// Half ILP: twice the cycles.
	if got, want := m.FPCycles(1000, cfg.IssueWidth/2), 2*1000/cfg.FLOPsPerCycle; got != want {
		t.Errorf("FPCycles(half ILP) = %g, want %g", got, want)
	}
	if got := m.FPCycles(0, 1); got != 0 {
		t.Errorf("FPCycles(0 ops) = %g, want 0", got)
	}
	// ILP floor prevents division blowup.
	if got := m.FPCycles(1000, 0); got <= 0 {
		t.Errorf("FPCycles with zero ILP = %g, want positive finite", got)
	}
}

// Property: cycles are monotone — moving a hit from a near level to a
// farther level never decreases the cycle count.
func TestCyclesMonotoneInDepthProperty(t *testing.T) {
	m, _ := New(machine.Kraken())
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := uint64(1000 + r.Intn(100000))
		l1 := uint64(r.Int63n(int64(n)))
		l2 := uint64(r.Int63n(int64(n - l1 + 1)))
		l3 := uint64(r.Int63n(int64(n - l1 - l2 + 1)))
		mem := n - l1 - l2 - l3
		base := cache.Counters{Refs: n, LevelHits: []uint64{l1, l2, l3}, MemAccesses: mem}
		c0, err := m.Cycles(base)
		if err != nil {
			return false
		}
		if l1 == 0 {
			return true
		}
		// Demote one L1 hit to memory.
		worse := cache.Counters{Refs: n, LevelHits: []uint64{l1 - 1, l2, l3}, MemAccesses: mem + 1}
		c1, err := m.Cycles(worse)
		if err != nil {
			return false
		}
		return c1 >= c0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
