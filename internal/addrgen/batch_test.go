package addrgen

import (
	"math/rand"
	"testing"
)

// batchCases builds, per invocation, a fresh pair of identically-constructed
// generators for every concrete type in the package.
func batchCases(t *testing.T) map[string][2]Generator {
	t.Helper()
	mk := func() []Generator {
		stride, err := NewStride(1<<12, 24, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		random, err := NewRandom(1<<20, 1<<14, 8, 42)
		if err != nil {
			t.Fatal(err)
		}
		stencil, err := NewStencil3D(1<<24, 13, 7, 5, 8)
		if err != nil {
			t.Fatal(err)
		}
		ma, _ := NewStride(0, 8, 1<<12)
		mb, _ := NewRandom(1<<20, 1<<12, 8, 9)
		mix, err := NewMix(ma, mb, 5, 3)
		if err != nil {
			t.Fatal(err)
		}
		bh, _ := NewStride(0, 8, 4<<10)
		bc, _ := NewRandom(1<<20, 1<<14, 8, 11)
		biased, err := NewBiased(bh, bc, 0.37)
		if err != nil {
			t.Fatal(err)
		}
		return []Generator{stride, random, stencil, mix, biased}
	}
	a, b := mk(), mk()
	out := make(map[string][2]Generator, len(a))
	for i := range a {
		out[a[i].Name()] = [2]Generator{a[i], b[i]}
	}
	return out
}

// TestNextBatchMatchesNext is the batching contract: NextBatch must emit
// exactly the stream repeated Next calls would, for every generator and for
// awkward batch sizes (1, primes, sizes spanning duty-cycle boundaries).
func TestNextBatchMatchesNext(t *testing.T) {
	for name, pair := range batchCases(t) {
		serial, batched := pair[0], pair[1]
		if _, ok := batched.(BatchGenerator); !ok {
			t.Errorf("%s does not implement BatchGenerator", name)
			continue
		}
		var got []uint64
		for _, n := range []int{1, 3, 7, 64, 129, 1000, 4096} {
			buf := make([]uint64, n)
			FillBatch(batched, buf)
			got = append(got, buf...)
		}
		for i := range got {
			if want := serial.Next(); got[i] != want {
				t.Fatalf("%s: batched stream diverged at ref %d: got %#x, want %#x", name, i, got[i], want)
			}
		}
	}
}

// TestFillBatchFallback drives a Generator that lacks NextBatch through the
// repeated-Next fallback.
func TestFillBatchFallback(t *testing.T) {
	a, _ := NewStride(0, 8, 1<<10)
	b, _ := NewStride(0, 8, 1<<10)
	buf := make([]uint64, 100)
	FillBatch(plainGenerator{a}, buf)
	for i, got := range buf {
		if want := b.Next(); got != want {
			t.Fatalf("fallback diverged at %d: got %#x, want %#x", i, got, want)
		}
	}
}

// plainGenerator hides the embedded generator's NextBatch by wrapping it in
// a type that only satisfies Generator.
type plainGenerator struct{ g *Stride }

func (p plainGenerator) Name() string       { return p.g.Name() }
func (p plainGenerator) Next() uint64       { return p.g.Next() }
func (p plainGenerator) Reset()             { p.g.Reset() }
func (p plainGenerator) WorkingSet() uint64 { return p.g.WorkingSet() }

// TestNextBatchResumesMidCycle interleaves Next and NextBatch calls on one
// generator: batching must pick up exactly where scalar calls left off.
func TestNextBatchResumesMidCycle(t *testing.T) {
	for name, pair := range batchCases(t) {
		serial, mixed := pair[0], pair[1]
		var got []uint64
		for round := 0; round < 5; round++ {
			got = append(got, mixed.Next(), mixed.Next(), mixed.Next())
			buf := make([]uint64, 17)
			FillBatch(mixed, buf)
			got = append(got, buf...)
		}
		for i := range got {
			if want := serial.Next(); got[i] != want {
				t.Fatalf("%s: mixed scalar/batch stream diverged at ref %d", name, i)
			}
		}
		_ = name
	}
}

// FuzzNextBatchMatchesNext is the batching contract under fuzzed geometry:
// a stencil grid (1-wide dimensions and 1×1×1 included) and a stride that
// need not divide its working set, each driven by an interleaving of Next
// and NextBatch calls, must emit what Next alone emits. Batch lengths are
// drawn near multiples of 7, the stencil's cell length, and near the next
// wrap of the stream, so runs and cells split at every boundary.
func FuzzNextBatchMatchesNext(f *testing.F) {
	f.Add(uint8(12), uint8(6), uint8(4), uint16(23), uint16(999), int64(1))
	f.Add(uint8(0), uint8(0), uint8(0), uint16(7), uint16(7), int64(2))
	f.Add(uint8(0), uint8(8), uint8(0), uint16(63), uint16(99), int64(3))
	f.Add(uint8(3), uint8(0), uint8(2), uint16(2), uint16(6), int64(4))
	f.Add(uint8(5), uint8(5), uint8(5), uint16(4095), uint16(100), int64(5))
	f.Fuzz(func(t *testing.T, nx, ny, nz uint8, stride, ws uint16, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		dims := [3]uint64{1 + uint64(nx%12), 1 + uint64(ny%12), 1 + uint64(nz%12)}
		elem := uint64(1) << rng.Intn(5)
		base := rng.Uint64()
		mkStencil := func() Generator {
			g, err := NewStencil3D(base, dims[0], dims[1], dims[2], elem)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		st, wsBytes := 1+uint64(stride), 1+uint64(ws)
		mkStride := func() Generator {
			g, err := NewStride(base, st, wsBytes)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		stencilPeriod := 7 * dims[0] * dims[1] * dims[2]
		stridePeriod := (wsBytes + st - 1) / st
		checkInterleaved(t, rng, "stencil3d", mkStencil(), mkStencil(), stencilPeriod)
		checkInterleaved(t, rng, "stride", mkStride(), mkStride(), stridePeriod)
	})
}

// checkInterleaved drives mixed with a random schedule of Next calls and
// FillBatch calls until it has emitted at least three periods of the
// stream, and requires the result to equal serial's Next stream.
func checkInterleaved(t *testing.T, rng *rand.Rand, name string, serial, mixed Generator, period uint64) {
	t.Helper()
	var got []uint64
	for uint64(len(got)) < 3*period+64 {
		pos := uint64(len(got))
		var n uint64
		switch rng.Intn(4) {
		case 0: // a few scalar calls
			for k := rng.Intn(4); k > 0; k-- {
				got = append(got, mixed.Next())
			}
			continue
		case 1: // near a multiple of the cell length
			n = 7*uint64(rng.Intn(20)) + uint64(rng.Intn(3))
		case 2: // up to, just short of or just past the next wrap
			n = period - pos%period + uint64(rng.Intn(3))
			if n > 1 {
				n--
			}
		default:
			n = 1 + uint64(rng.Intn(200))
		}
		if n == 0 {
			n = 1
		}
		buf := make([]uint64, n)
		FillBatch(mixed, buf)
		got = append(got, buf...)
	}
	for i := range got {
		if want := serial.Next(); got[i] != want {
			t.Fatalf("%s (period %d): mixed Next/NextBatch stream diverged at ref %d: got %#x, want %#x", name, period, i, got[i], want)
		}
	}
}

func TestFillBatchAllocationFree(t *testing.T) {
	g, _ := NewStride(0, 8, 1<<16)
	buf := make([]uint64, 4096)
	allocs := testing.AllocsPerRun(20, func() { FillBatch(g, buf) })
	if allocs != 0 {
		t.Errorf("FillBatch allocated %.1f objects per call, want 0", allocs)
	}
}

func BenchmarkStrideNextBatch(b *testing.B) {
	g, _ := NewStride(0, 8, 1<<20)
	buf := make([]uint64, 4096)
	b.ReportAllocs()
	b.SetBytes(int64(len(buf) * 8))
	for i := 0; i < b.N; i++ {
		g.NextBatch(buf)
	}
}

func BenchmarkStencilNextBatch(b *testing.B) {
	g, _ := NewStencil3D(0, 64, 64, 64, 8)
	buf := make([]uint64, 4096)
	b.ReportAllocs()
	b.SetBytes(int64(len(buf) * 8))
	for i := 0; i < b.N; i++ {
		g.NextBatch(buf)
	}
}

func BenchmarkRandomNextBatch(b *testing.B) {
	g, _ := NewRandom(0, 1<<20, 8, 1)
	buf := make([]uint64, 4096)
	b.ReportAllocs()
	b.SetBytes(int64(len(buf) * 8))
	for i := 0; i < b.N; i++ {
		g.NextBatch(buf)
	}
}
