package addrgen

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStrideSequence(t *testing.T) {
	g, err := NewStride(1000, 8, 24)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{1000, 1008, 1016, 1000, 1008}
	for i, w := range want {
		if got := g.Next(); got != w {
			t.Errorf("addr %d = %d, want %d", i, got, w)
		}
	}
}

func TestStrideRoundsWorkingSetUp(t *testing.T) {
	g, err := NewStride(0, 64, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.WorkingSet(); got != 128 {
		t.Errorf("WorkingSet = %d, want 128 (rounded to stride)", got)
	}
}

func TestStrideErrors(t *testing.T) {
	if _, err := NewStride(0, 0, 100); err == nil {
		t.Error("zero stride accepted")
	}
	if _, err := NewStride(0, 8, 0); err == nil {
		t.Error("zero working set accepted")
	}
	// Rounding 2^64-3 up to a multiple of 4 wraps to 0, a stream that
	// would never advance.
	if _, err := NewStride(0, 4, ^uint64(0)-2); err == nil {
		t.Error("working set that overflows when rounded accepted")
	}
}

func TestStrideReset(t *testing.T) {
	g, _ := NewStride(0, 8, 64)
	first := g.Next()
	g.Next()
	g.Reset()
	if got := g.Next(); got != first {
		t.Errorf("after Reset: %d, want %d", got, first)
	}
}

func TestRandomDeterministicAndBounded(t *testing.T) {
	a, err := NewRandom(4096, 1024, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewRandom(4096, 1024, 8, 42)
	for i := 0; i < 1000; i++ {
		x, y := a.Next(), b.Next()
		if x != y {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, x, y)
		}
		if x < 4096 || x >= 4096+1024 {
			t.Fatalf("address %d out of working set", x)
		}
		if (x-4096)%8 != 0 {
			t.Fatalf("address %d not element aligned", x)
		}
	}
}

func TestRandomResetReplays(t *testing.T) {
	g, _ := NewRandom(0, 4096, 8, 7)
	var first []uint64
	for i := 0; i < 10; i++ {
		first = append(first, g.Next())
	}
	g.Reset()
	for i := 0; i < 10; i++ {
		if got := g.Next(); got != first[i] {
			t.Fatalf("replay diverged at %d", i)
		}
	}
}

func TestRandomErrors(t *testing.T) {
	if _, err := NewRandom(0, 4, 8, 1); err == nil {
		t.Error("working set smaller than element accepted")
	}
	if _, err := NewRandom(0, 8, 0, 1); err == nil {
		t.Error("zero element size accepted")
	}
}

func TestStencil3DCoversGrid(t *testing.T) {
	const nx, ny, nz, elem = 4, 3, 2, 8
	g, err := NewStencil3D(0, nx, ny, nz, elem)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.WorkingSet(); got != nx*ny*nz*elem {
		t.Errorf("WorkingSet = %d", got)
	}
	seen := map[uint64]bool{}
	// One full sweep: 7 refs per cell.
	for i := 0; i < nx*ny*nz*7; i++ {
		a := g.Next()
		if a >= nx*ny*nz*elem {
			t.Fatalf("address %d outside grid", a)
		}
		if a%elem != 0 {
			t.Fatalf("address %d unaligned", a)
		}
		seen[a] = true
	}
	if len(seen) != nx*ny*nz {
		t.Errorf("sweep touched %d distinct cells, want %d", len(seen), nx*ny*nz)
	}
}

func TestStencil3DCenterAndNeighbors(t *testing.T) {
	// Interior cell (1,1,1) of a 3x3x3 grid: its 7 points are distinct.
	g, _ := NewStencil3D(0, 3, 3, 3, 8)
	// Advance to cell (1,1,1): row-major index = (1*3+1)*3+1 = 13 cells.
	for i := 0; i < 13*7; i++ {
		g.Next()
	}
	pts := map[uint64]bool{}
	for i := 0; i < 7; i++ {
		pts[g.Next()] = true
	}
	if len(pts) != 7 {
		t.Errorf("interior stencil has %d distinct points, want 7", len(pts))
	}
}

func TestStencil3DErrors(t *testing.T) {
	if _, err := NewStencil3D(0, 0, 1, 1, 8); err == nil {
		t.Error("degenerate grid accepted")
	}
}

func TestMixDutyCycle(t *testing.T) {
	a, _ := NewStride(0, 8, 1<<10)
	b, _ := NewStride(1<<20, 8, 1<<10)
	m, err := NewMix(a, b, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 20; cycle++ {
		for i := 0; i < 2; i++ {
			if addr := m.Next(); addr >= 1<<20 {
				t.Fatalf("expected A address, got %#x", addr)
			}
		}
		if addr := m.Next(); addr < 1<<20 {
			t.Fatalf("expected B address, got %#x", addr)
		}
	}
}

func TestMixErrors(t *testing.T) {
	a, _ := NewStride(0, 8, 64)
	b, _ := NewStride(0, 8, 64)
	if _, err := NewMix(a, b, 0, 1); err == nil {
		t.Error("zero duty cycle accepted")
	}
}

func TestMixResetAndName(t *testing.T) {
	a, _ := NewStride(0, 8, 64)
	b, _ := NewRandom(1<<20, 1<<10, 8, 3)
	m, _ := NewMix(a, b, 1, 1)
	var first []uint64
	for i := 0; i < 8; i++ {
		first = append(first, m.Next())
	}
	m.Reset()
	for i := 0; i < 8; i++ {
		if got := m.Next(); got != first[i] {
			t.Fatalf("Mix replay diverged at %d", i)
		}
	}
	if m.Name() != "mix(stride,random)" {
		t.Errorf("Name = %q", m.Name())
	}
}

// Property: every generator is deterministic — Reset replays the identical
// prefix — and never emits addresses outside [base, base+WS) for the
// single-region generators.
func TestGeneratorDeterminismProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ws := uint64(64 * (1 + r.Intn(1024)))
		gens := []Generator{}
		if g, err := NewStride(0, 8*uint64(1+r.Intn(16)), ws); err == nil {
			gens = append(gens, g)
		}
		if g, err := NewRandom(0, ws, 8, seed); err == nil {
			gens = append(gens, g)
		}
		if g, err := NewStencil3D(0, uint64(1+r.Intn(16)), uint64(1+r.Intn(16)), uint64(1+r.Intn(8)), 8); err == nil {
			gens = append(gens, g)
		}
		for _, g := range gens {
			first, second := make([]uint64, 200), make([]uint64, 200)
			FillBatch(g, first)
			g.Reset()
			FillBatch(g, second)
			for i := range first {
				if first[i] != second[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkStrideNext(b *testing.B) {
	g, _ := NewStride(0, 8, 1<<20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func BenchmarkStencilNext(b *testing.B) {
	g, _ := NewStencil3D(0, 64, 64, 64, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}
