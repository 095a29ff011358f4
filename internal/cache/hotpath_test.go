package cache

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestAccessSteadyStateAllocationFree guards the hot loop: once a simulator
// is constructed, demand accesses (scalar and batched) and Flush must not
// allocate.
func TestAccessSteadyStateAllocationFree(t *testing.T) {
	sim, err := NewSimulator(threeLevel())
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 1024; i++ {
			sim.Access(uint64(i) * 64)
		}
	}); allocs != 0 {
		t.Errorf("Access allocated %.1f objects per run, want 0", allocs)
	}
	batch := make([]uint64, 4096)
	for i := range batch {
		batch[i] = uint64(i) * 64
	}
	if allocs := testing.AllocsPerRun(20, func() { sim.AccessBatch(batch) }); allocs != 0 {
		t.Errorf("AccessBatch allocated %.1f objects per run, want 0", allocs)
	}
	// Flush clears the prefetcher's stream state in place, so reusing a
	// prefetching simulator across work units allocates nothing either.
	pf, err := NewSimulatorOpts(threeLevel(), Options{NextLinePrefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	pf.AccessBatch(batch) // arm streams: the prefetched-line set is non-empty
	if allocs := testing.AllocsPerRun(20, func() {
		pf.Flush()
		pf.AccessBatch(batch[:64])
	}); allocs != 0 {
		t.Errorf("Flush on a prefetching simulator allocated %.1f objects per run, want 0", allocs)
	}
}

// TestHoistedGeometryMatchesConfig checks the constructor-derived fields
// against the per-level config they were hoisted from.
func TestHoistedGeometryMatchesConfig(t *testing.T) {
	cfgs := []LevelConfig{
		{Name: "L1", SizeBytes: 48 << 10, Assoc: 12, LineSize: 64}, // 64 sets (pow2)
		{Name: "L2", SizeBytes: 96 << 10, Assoc: 8, LineSize: 64},  // 192 sets (non-pow2)
	}
	sim, err := NewSimulator(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, lv := range sim.levels {
		if lv.assoc != cfgs[i].Assoc {
			t.Errorf("level %d: hoisted assoc %d, config %d", i, lv.assoc, cfgs[i].Assoc)
		}
		if lv.sets64 != uint64(cfgs[i].Sets()) {
			t.Errorf("level %d: hoisted sets64 %d, config %d", i, lv.sets64, cfgs[i].Sets())
		}
		wantMask := uint64(0)
		if s := cfgs[i].Sets(); s&(s-1) == 0 {
			wantMask = uint64(s - 1)
		}
		if lv.setMask != wantMask {
			t.Errorf("level %d: setMask %#x, want %#x", i, lv.setMask, wantMask)
		}
	}
}

// BenchmarkAccessBatchStride is the regression guard for the batched hot
// loop: per-reference cost of AccessBatch on a streaming pattern.
func BenchmarkAccessBatchStride(b *testing.B) {
	sim, _ := NewSimulator(threeLevel())
	batch := make([]uint64, 4096)
	var next uint64
	b.ReportAllocs()
	b.SetBytes(int64(len(batch) * 8))
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j] = next
			next += 64
		}
		sim.AccessBatch(batch)
	}
}

// benchmarkUnitStride streams 8-byte unit-stride references over a 1 MiB
// array through the bluewaters hierarchy, so seven of every eight
// references hit the line at the front of its L1 set.
func benchmarkUnitStride(b *testing.B, opts Options) {
	sim, _ := NewSimulatorOpts([]LevelConfig{
		{Name: "L1", SizeBytes: 32 << 10, Assoc: 8, LineSize: 64},
		{Name: "L2", SizeBytes: 256 << 10, Assoc: 8, LineSize: 64},
		{Name: "L3", SizeBytes: 4 << 20, Assoc: 8, LineSize: 64},
	}, opts)
	batch := make([]uint64, 4096)
	var next uint64
	b.ReportAllocs()
	b.SetBytes(int64(len(batch) * 8))
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j] = next
			next = (next + 8) & (1<<20 - 1)
		}
		sim.AccessBatch(batch)
	}
}

// BenchmarkAccessBatchUnitStride measures the front-of-set path of
// AccessBatch on the unit-stride pattern that dominates collection.
func BenchmarkAccessBatchUnitStride(b *testing.B) { benchmarkUnitStride(b, Options{}) }

// BenchmarkAccessBatchUnitStridePrefetch is BenchmarkAccessBatchUnitStride
// with the prefetcher on, where a front hit must also rule out a prefetch
// mark.
func BenchmarkAccessBatchUnitStridePrefetch(b *testing.B) {
	benchmarkUnitStride(b, Options{NextLinePrefetch: true})
}

// BenchmarkAccessBatchRandom measures the batched hot loop on a random
// stream, including the non-power-of-two set-index path.
func BenchmarkAccessBatchRandom(b *testing.B) {
	levels := []LevelConfig{
		{Name: "L1", SizeBytes: 48 << 10, Assoc: 12, LineSize: 64}, // 64 sets
		{Name: "L2", SizeBytes: 96 << 10, Assoc: 8, LineSize: 64},  // 192 sets (modulo path)
		{Name: "L3", SizeBytes: 2 << 20, Assoc: 16, LineSize: 64},
	}
	sim, _ := NewSimulator(levels)
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(16 << 20))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (i * 4096) & (1<<16 - 1)
		sim.AccessBatch(addrs[off : off+4096])
	}
}

// BenchmarkAccessBatchRandom48Way is BenchmarkAccessBatchRandom on kraken's
// hierarchy, whose 48-way L3 makes every miss scan and shift a long set.
func BenchmarkAccessBatchRandom48Way(b *testing.B) {
	levels := []LevelConfig{
		{Name: "L1", SizeBytes: 64 << 10, Assoc: 2, LineSize: 64},
		{Name: "L2", SizeBytes: 512 << 10, Assoc: 16, LineSize: 64},
		{Name: "L3", SizeBytes: 6 << 20, Assoc: 48, LineSize: 64},
	}
	sim, _ := NewSimulator(levels)
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(16 << 20))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (i * 4096) & (1<<16 - 1)
		sim.AccessBatch(addrs[off : off+4096])
	}
}

// TestHotStateOwnsItsCacheLines pins the pads that keep the state a worker
// writes on every access off host cache lines any other heap object uses.
func TestHotStateOwnsItsCacheLines(t *testing.T) {
	pad := reflect.TypeOf(linePad{})
	for _, typ := range []reflect.Type{reflect.TypeOf(Simulator{}), reflect.TypeOf(level{}), reflect.TypeOf(ReuseRecorder{})} {
		if typ.Field(0).Type != pad || typ.Field(typ.NumField()-1).Type != pad {
			t.Errorf("%s does not start and end with a linePad", typ)
		}
	}
}
