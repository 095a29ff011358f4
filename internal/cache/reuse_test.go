package cache

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"tracex/internal/trace"
)

// naiveStackDistance is the O(n²) reference implementation: the reuse
// distance of a reference is the number of distinct other lines touched
// since the line's previous access.
type naiveStackDistance struct {
	shift uint
	hist  []uint64 // access order, most recent last
}

func (n *naiveStackDistance) access(addr uint64) (dist uint64, cold bool) {
	blk := addr >> n.shift
	pos := -1
	for i := len(n.hist) - 1; i >= 0; i-- {
		if n.hist[i] == blk {
			pos = i
			break
		}
	}
	if pos < 0 {
		n.hist = append(n.hist, blk)
		return 0, true
	}
	distinct := map[uint64]bool{}
	for _, b := range n.hist[pos+1:] {
		distinct[b] = true
	}
	n.hist = append(n.hist[:pos], n.hist[pos+1:]...)
	n.hist = append(n.hist, blk)
	return uint64(len(distinct)), false
}

// TestReuseRecorderMatchesNaive checks every reuse distance against the
// O(n²) reference over a hot/scan/far mixture, streams in far-apart regions
// (the ID<<32 bases of synthapp blocks) and streams that straddle page
// boundaries. One recorder with a tiny capacity serves every stream twice,
// so compaction runs constantly and the second round reuses the pages the
// first released through Reset.
func TestReuseRecorderMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rec, err := NewReuseRecorder(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	streams := []struct {
		name string
		addr func(i int) uint64
	}{
		{"mixed", func(i int) uint64 {
			switch rng.Intn(3) {
			case 0:
				return uint64(rng.Intn(16)) * 64
			case 1:
				return uint64(i%700) * 64
			default:
				return uint64(rng.Intn(1 << 20))
			}
		}},
		{"far regions", func(i int) uint64 {
			id := uint64(1 + rng.Intn(6))
			return id<<32 + uint64(rng.Intn(3*pageLines*64))
		}},
		{"page edges", func(i int) uint64 {
			line := uint64(1+rng.Intn(8))*pageLines + uint64(rng.Intn(5)) - 2
			return line*64 + uint64(rng.Intn(64))
		}},
	}
	n := 4000
	if testing.Short() {
		n = 1000
	}
	for round := 0; round < 2; round++ {
		for _, st := range streams {
			rec.Reset(8)
			naive := &naiveStackDistance{shift: 6}
			for i := 0; i < n; i++ {
				addr := st.addr(i)
				gd, gc := rec.access(addr)
				wd, wc := naive.access(addr)
				if gd != wd || gc != wc {
					t.Fatalf("round %d %s: ref %d addr %#x: got (%d,%v), want (%d,%v)", round, st.name, i, addr, gd, gc, wd, wc)
				}
			}
		}
	}
}

// TestReuseRecorderWarmThenRecordMatchesNaive: Warm stamps access times
// without updating the tree, so the distances Record measures afterwards
// must still equal the naive reference's, with compaction inside Warm, a
// Warm after a Record, and a reused recorder.
func TestReuseRecorderWarmThenRecordMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, capacity := range []int{8, 100, 1 << 14} {
		rec, err := NewReuseRecorder(64, capacity)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			rec.Reset(capacity)
			naive := &naiveStackDistance{shift: 6}
			var got, want trace.ReuseHistogram
			got.LineSize, want.LineSize = 64, 64
			for phase := 0; phase < 4; phase++ {
				addrs := make([]uint64, 300+rng.Intn(700))
				for i := range addrs {
					addrs[i] = uint64(1+rng.Intn(3))<<32 + uint64(rng.Intn(1500))*64
				}
				warm := phase%2 == 0
				for i := 0; i < len(addrs); i += 64 {
					batch := addrs[i:min(i+64, len(addrs))]
					if warm {
						rec.Warm(batch)
					} else {
						rec.Record(batch, &got)
					}
				}
				for _, a := range addrs {
					d, cold := naive.access(a)
					switch {
					case warm:
					case cold:
						want.AddCold()
					default:
						want.Add(d)
					}
				}
			}
			if got.Refs != want.Refs || got.Cold != want.Cold || len(got.Counts) != len(want.Counts) {
				t.Fatalf("capacity %d round %d: histogram %d refs/%d cold/%d buckets, naive %d/%d/%d",
					capacity, round, got.Refs, got.Cold, len(got.Counts), want.Refs, want.Cold, len(want.Counts))
			}
			for b := range want.Counts {
				if got.Counts[b] != want.Counts[b] {
					t.Fatalf("capacity %d round %d: bucket %d = %d, naive %d", capacity, round, b, got.Counts[b], want.Counts[b])
				}
			}
		}
	}
}

func TestReuseRecorderResetReuses(t *testing.T) {
	rec, err := NewReuseRecorder(64, 1024)
	if err != nil {
		t.Fatal(err)
	}
	h1 := trace.ReuseHistogram{LineSize: 64}
	addrs := make([]uint64, 512)
	for i := range addrs {
		addrs[i] = uint64(i%37) * 64
	}
	rec.Record(addrs, &h1)
	rec.Reset(1024)
	h2 := trace.ReuseHistogram{LineSize: 64}
	rec.Record(addrs, &h2)
	if h1.Cold != h2.Cold || h1.Refs != h2.Refs {
		t.Fatalf("reset recorder drifted: %+v vs %+v", h1, h2)
	}
	for b := range h1.Counts {
		if b < len(h2.Counts) && h1.Counts[b] != h2.Counts[b] {
			t.Fatalf("bucket %d: %d vs %d after Reset", b, h1.Counts[b], h2.Counts[b])
		}
	}
	// Reset keeps the tree and the pages, so recording the same stream
	// again allocates nothing.
	if allocs := testing.AllocsPerRun(5, func() {
		rec.Reset(1024)
		rec.Record(addrs, &h2)
	}); allocs != 0 {
		t.Errorf("Reset+Record allocated %.1f objects per run, want 0", allocs)
	}
}

func TestNewReuseRecorderRejectsBadLineSize(t *testing.T) {
	for _, ls := range []int{0, -64, 48, 65} {
		if _, err := NewReuseRecorder(ls, 16); err == nil {
			t.Errorf("line size %d accepted", ls)
		}
	}
}

// TestAnalyticalMatchesFullyAssociativeLRU pins the model's exact regime: on
// a fully-associative LRU cache a reference hits iff its stack distance is
// below the capacity in lines, so the analytical rates must match the
// simulator almost exactly (the only slack is histogram bucketing).
func TestAnalyticalMatchesFullyAssociativeLRU(t *testing.T) {
	levels := []LevelConfig{
		{Name: "L1", SizeBytes: 16 << 10, Assoc: 256, LineSize: 64},   // 256 lines, 1 set
		{Name: "L2", SizeBytes: 256 << 10, Assoc: 4096, LineSize: 64}, // 4096 lines, 1 set
	}
	sim, err := NewSimulator(levels)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewReuseRecorder(64, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	h := trace.ReuseHistogram{LineSize: 64}
	rng := rand.New(rand.NewSource(42))
	buf := make([]uint64, 1)
	for i := 0; i < 60_000; i++ {
		// Working set ~24k lines: spans both capacities.
		addr := uint64(rng.Intn(24_000)) * 64
		sim.Access(addr)
		buf[0] = addr
		rec.Record(buf, &h)
	}
	want := sim.Counters().CumulativeHitRates()
	got, err := Analytical{}.Rates(&h, levels)
	if err != nil {
		t.Fatal(err)
	}
	for l := range want {
		if diff := math.Abs(got[l] - want[l]); diff > 0.01 {
			t.Errorf("level %d: analytical %.4f vs exact %.4f (|Δ|=%.4f)", l, got[l], want[l], diff)
		}
	}
}

func TestAnalyticalRatesValidation(t *testing.T) {
	h := trace.ReuseHistogram{LineSize: 64}
	h.Add(1)
	h.AddCold()
	levels := []LevelConfig{{Name: "L1", SizeBytes: 32 << 10, Assoc: 8, LineSize: 64}}
	if _, err := (Analytical{}).Rates(&h, levels); err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}
	if _, err := (Analytical{}).Rates(nil, levels); err == nil {
		t.Error("nil histogram accepted")
	}
	if _, err := (Analytical{}).Rates(&h, nil); err == nil {
		t.Error("empty hierarchy accepted")
	}
	mismatch := []LevelConfig{{Name: "L1", SizeBytes: 32 << 10, Assoc: 8, LineSize: 128}}
	if _, err := (Analytical{}).Rates(&h, mismatch); !errors.Is(err, ErrModelUnsupported) {
		t.Errorf("line-size mismatch: %v, want ErrModelUnsupported", err)
	}
}

func TestAnalyticalRatesMonotoneAndBounded(t *testing.T) {
	h := trace.ReuseHistogram{LineSize: 64}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50_000; i++ {
		h.Add(uint64(rng.Intn(1 << 18)))
	}
	for i := 0; i < 1000; i++ {
		h.AddCold()
	}
	levels := []LevelConfig{
		{Name: "L1", SizeBytes: 32 << 10, Assoc: 8, LineSize: 64},
		{Name: "L2", SizeBytes: 256 << 10, Assoc: 8, LineSize: 64},
		{Name: "L3", SizeBytes: 4 << 20, Assoc: 16, LineSize: 64},
	}
	rates, err := Analytical{}.Rates(&h, levels)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for l, r := range rates {
		if r < prev || r > 1 {
			t.Fatalf("rates not monotone in [0,1]: %v (level %d)", rates, l)
		}
		prev = r
	}
}

// TestHitProbBinomialRegimes spot-checks the associativity correction
// against directly evaluated binomial CDFs and its asymptotic regimes.
func TestHitProbBinomialRegimes(t *testing.T) {
	// d < assoc always hits.
	if p := hitProb(3, 8, 64); p != 1 {
		t.Errorf("hitProb(3,8,64) = %g, want 1", p)
	}
	// Fully-associative: hard cutoff at assoc lines.
	if p := hitProb(500, 512, 1); p != 1 {
		t.Errorf("fully-assoc below capacity: %g, want 1", p)
	}
	if p := hitProb(513, 512, 1); p != 0 {
		t.Errorf("fully-assoc above capacity: %g, want 0", p)
	}
	// Direct-mapped with S sets: P(hit) = (1-1/S)^d.
	for _, d := range []float64{1, 10, 100} {
		want := math.Pow(1-1.0/64, d)
		if p := hitProb(d, 1, 64); math.Abs(p-want) > 1e-12 {
			t.Errorf("hitProb(%g,1,64) = %g, want %g", d, p, want)
		}
	}
	// Deep-distance early-out: probability indistinguishable from zero.
	if p := hitProb(1e9, 8, 64); p != 0 {
		t.Errorf("deep distance: %g, want 0", p)
	}
	// Monotone decreasing in distance.
	prev := 1.0
	for d := 1.0; d < 4000; d *= 1.4 {
		p := hitProb(d, 8, 64)
		if p > prev+1e-12 {
			t.Fatalf("hitProb not monotone at d=%g: %g > %g", d, p, prev)
		}
		prev = p
	}
	// Large-associativity normal branch stays in [0,1] and near the hard
	// cutoff semantics.
	if p := hitProb(100, 512, 4); p < 0.999 {
		t.Errorf("hitProb(100,512,4) = %g, want ≈1", p)
	}
	if p := hitProb(1e6, 512, 4); p != 0 {
		t.Errorf("hitProb(1e6,512,4) = %g, want 0", p)
	}
}
