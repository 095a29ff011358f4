package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomHierarchy draws a valid inclusive hierarchy of one to three levels:
// line sizes 1–128 bytes, associativity 1–48 and set counts 1–24, so both
// the power-of-two and the divide paths run. With minSets 2 every level has
// at least two sets.
func randomHierarchy(rng *rand.Rand, minSets int) []LevelConfig {
	line := 1 << rng.Intn(8)
	n := 1 + rng.Intn(3)
	levels := make([]LevelConfig, n)
	prev := 0
	for i := range levels {
		assoc := 1 + rng.Intn(48)
		sets := minSets + rng.Intn(25-minSets)
		if per := assoc * line; sets*per < prev {
			sets = (prev+per-1)/per + rng.Intn(4)
		}
		levels[i] = LevelConfig{Name: "L", SizeBytes: sets * assoc * line, Assoc: assoc, LineSize: line}
		prev = levels[i].SizeBytes
	}
	return levels
}

// streamKinds names the address streams of the differential tests.
var streamKinds = []string{"stride", "random", "hot-set", "same-line", "top"}

// diffStream returns n addresses of the given kind over a window sized
// against the hierarchy's last level, so streams fit, fill and overflow it.
func diffStream(rng *rand.Rand, kind string, levels []LevelConfig, n int) []uint64 {
	line := uint64(levels[0].LineSize)
	capacity := uint64(levels[len(levels)-1].SizeBytes)
	window := capacity/2 + uint64(rng.Int63n(int64(4*capacity)))
	base := uint64(rng.Intn(4)) << 32
	out := make([]uint64, n)
	switch kind {
	case "stride":
		stride := line * uint64(1+rng.Intn(3))
		if rng.Intn(2) == 0 && line > 1 {
			stride = line / 2
		}
		for i := range out {
			out[i] = base + uint64(i)*stride%window
		}
	case "random":
		for i := range out {
			out[i] = base + uint64(rng.Int63n(int64(window)))
		}
	case "hot-set":
		hot := make([]uint64, 1+rng.Intn(64))
		for i := range hot {
			hot[i] = base + uint64(rng.Int63n(int64(window)))
		}
		for i := range out {
			if rng.Intn(10) < 9 {
				out[i] = hot[rng.Intn(len(hot))]
			} else {
				out[i] = base + uint64(rng.Int63n(int64(4*window)))
			}
		}
	case "same-line":
		// Runs of references within one line, walking line by line with
		// occasional jumps back.
		cur := base
		for i := range out {
			if rng.Intn(8) == 0 {
				cur += line
				if rng.Intn(8) == 0 {
					cur = base + uint64(rng.Int63n(int64(window)))
				}
			}
			out[i] = cur&^(line-1) + uint64(rng.Int63n(int64(line)))
		}
	case "top":
		// The top of the address space: line tags near the empty-way
		// marker, and prefetches that wrap past it.
		for i := range out {
			out[i] = ^uint64(0) - uint64(rng.Int63n(int64(window)))
		}
	}
	return out
}

// checkAgainstReference streams addrs through a new Simulator and the
// reference, failing on the first differing Access return, and compares
// the final counters. Halfway through it flushes the Simulator and starts a
// fresh reference, so Flush must equal a new simulator.
func checkAgainstReference(t *testing.T, levels []LevelConfig, pf bool, addrs []uint64) {
	t.Helper()
	opts := Options{NextLinePrefetch: pf}
	sim, err := NewSimulatorOpts(levels, opts)
	if err != nil {
		t.Fatalf("%+v: %v", levels, err)
	}
	ref := newReferenceSimulator(levels, opts)
	for i, a := range addrs {
		if i == len(addrs)/2 {
			sim.Flush()
			ref = newReferenceSimulator(levels, opts)
		}
		if i == len(addrs)/4 {
			sim.ResetCounters()
			ref.ResetCounters()
		}
		if got, want := sim.Access(a), ref.Access(a); got != want {
			t.Fatalf("levels %+v pf=%v: ref %d addr %#x: Access = %d, reference %d", levels, pf, i, a, got, want)
		}
	}
	checkCounters(t, levels, pf, "end of stream", sim.Counters(), ref.Counters())
}

// checkBatchAgainstReference streams addrs through a new Simulator's
// AccessBatch in chunks of 1 to 4096 addresses drawn from chunks, and
// through the reference one Access at a time, comparing the counters after
// every chunk. It resets the counters at the quarter and flushes at the
// midpoint, as checkAgainstReference does. It ends by replaying addrs
// through Access on both, comparing every return, so a cache or prefetcher
// state that the batch left different shows even where its counters
// agreed.
func checkBatchAgainstReference(t *testing.T, chunks *rand.Rand, levels []LevelConfig, pf bool, addrs []uint64) {
	t.Helper()
	opts := Options{NextLinePrefetch: pf}
	sim, err := NewSimulatorOpts(levels, opts)
	if err != nil {
		t.Fatalf("%+v: %v", levels, err)
	}
	ref := newReferenceSimulator(levels, opts)
	quarter, half := len(addrs)/4, len(addrs)/2
	for i := 0; i < len(addrs); {
		if i == half {
			sim.Flush()
			ref = newReferenceSimulator(levels, opts)
		}
		if i == quarter {
			sim.ResetCounters()
			ref.ResetCounters()
		}
		end := i + 1 + chunks.Intn(1<<chunks.Intn(13))
		for _, stop := range []int{quarter, half, len(addrs)} {
			if i < stop && stop < end {
				end = stop
			}
		}
		sim.AccessBatch(addrs[i:end])
		for _, a := range addrs[i:end] {
			ref.Access(a)
		}
		checkCounters(t, levels, pf, fmt.Sprintf("batch [%d,%d)", i, end), sim.Counters(), ref.Counters())
		i = end
	}
	for i, a := range addrs {
		if got, want := sim.Access(a), ref.Access(a); got != want {
			t.Fatalf("levels %+v pf=%v: replay ref %d addr %#x after AccessBatch: Access = %d, reference %d", levels, pf, i, a, got, want)
		}
	}
}

// checkCounters fails unless got equals the reference's counters want.
func checkCounters(t *testing.T, levels []LevelConfig, pf bool, where string, got, want Counters) {
	t.Helper()
	if got.Refs != want.Refs || got.MemAccesses != want.MemAccesses || got.PrefetchFills != want.PrefetchFills {
		t.Fatalf("levels %+v pf=%v, %s: counters %+v, reference %+v", levels, pf, where, got, want)
	}
	for i := range want.LevelHits {
		if got.LevelHits[i] != want.LevelHits[i] {
			t.Fatalf("levels %+v pf=%v, %s: level %d hits %d, reference %d", levels, pf, where, i, got.LevelHits[i], want.LevelHits[i])
		}
	}
}

// TestSimulatorMatchesReference requires the recency-ordered simulator to
// return what the age-stamped reference returns on every access, and to end
// with the same counters, across power-of-two and divided set counts,
// associativity 1–48, line sizes 1–128, the prefetcher on and off, and
// stride, random, hot-set, same-line and top-of-memory streams. Every
// stream also runs through AccessBatch in random chunks, whose front-of-set
// path must leave the same counters and state as one Access per address.
// One-set levels run without the prefetcher only (see
// TestOneSetPrefetchedLineIsMoreRecent).
func TestSimulatorMatchesReference(t *testing.T) {
	fixed := [][]LevelConfig{
		threeLevel(),
		{{Name: "L1", SizeBytes: 48 << 10, Assoc: 12, LineSize: 64}, {Name: "L2", SizeBytes: 96 << 10, Assoc: 8, LineSize: 64}},
		{{Name: "L1", SizeBytes: 8 << 10, Assoc: 2, LineSize: 64}, {Name: "L3", SizeBytes: 96 << 10, Assoc: 48, LineSize: 64}},
		{{Name: "L1", SizeBytes: 3 * 5, Assoc: 5, LineSize: 1}, {Name: "L2", SizeBytes: 7 * 8, Assoc: 8, LineSize: 1}},
		{{Name: "L1", SizeBytes: 2 * 128, Assoc: 1, LineSize: 128}},
	}
	oneSet := [][]LevelConfig{
		{{Name: "L1", SizeBytes: 8, Assoc: 8, LineSize: 1}},
		{{Name: "L1", SizeBytes: 16 * 64, Assoc: 16, LineSize: 64}, {Name: "L2", SizeBytes: 4 * 48 * 64, Assoc: 48, LineSize: 64}},
	}
	rng := rand.New(rand.NewSource(15))
	chunks := rand.New(rand.NewSource(16))
	n := 6000
	if testing.Short() {
		n = 1500
	}
	for _, pf := range []bool{false, true} {
		cases := append([][]LevelConfig(nil), fixed...)
		if !pf {
			cases = append(cases, oneSet...)
		}
		minSets := 1
		if pf {
			minSets = 2
		}
		for i := 0; i < 40; i++ {
			cases = append(cases, randomHierarchy(rng, minSets))
		}
		for _, levels := range cases {
			for _, kind := range streamKinds {
				addrs := diffStream(rng, kind, levels, n)
				checkAgainstReference(t, levels, pf, addrs)
				checkBatchAgainstReference(t, chunks, levels, pf, addrs)
			}
		}
	}
	// A one-set level with 1-byte lines is the one place a real line is
	// tagged like an unused way: touch that line while ways are unused,
	// in the MRU way after the midway flush and deeper in the set.
	byteLines := oneSet[0]
	addrs := diffStream(rng, "top", byteLines, n)
	addrs[0], addrs[1], addrs[n/2] = ^uint64(0)-3, ^uint64(0), ^uint64(0)
	checkAgainstReference(t, byteLines, false, addrs)
	checkBatchAgainstReference(t, chunks, byteLines, false, addrs)
}

// TestOneSetPrefetchedLineIsMoreRecent pins the one place the recency
// order differs from the age-stamped reference. A prefetch installs its
// line in the same access as the demand line that triggered it; the
// reference stamps both with one tick and breaks the tie by physical way,
// while the recency order puts the prefetched line first. That can only
// matter when both lines share a set, which needs a one-set level; every
// predefined machine has at least two sets per level
// (TestPredefinedLevelsHaveTwoSets in internal/machine).
func TestOneSetPrefetchedLineIsMoreRecent(t *testing.T) {
	levels := []LevelConfig{{Name: "L1", SizeBytes: 2 * 64, Assoc: 2, LineSize: 64}}
	opts := Options{NextLinePrefetch: true}
	sim, err := NewSimulatorOpts(levels, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := newReferenceSimulator(levels, opts)
	// Line 0's miss arms the stream and prefetches line 1; the demand hit
	// on line 1 prefetches line 2 in the same access; line 5's miss then
	// evicts the less recent of lines 1 and 2.
	for _, line := range []uint64{0, 1, 5} {
		sim.Access(line * 64)
		ref.Access(line * 64)
	}
	if got := sim.Access(2 * 64); got != 0 {
		t.Errorf("prefetched line 2 evicted before its trigger (level %d)", got)
	}
	if got := ref.Access(2 * 64); got != 1 {
		t.Errorf("reference kept line 2 (level %d); the documented divergence is gone", got)
	}
}

// FuzzSimulatorMatchesReference drives the differential checks, per Access
// and per AccessBatch chunk, from fuzzed seeds: the seed picks the
// hierarchy, the stream and the chunk lengths, pf the prefetcher.
func FuzzSimulatorMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed), seed%2 == 0)
	}
	f.Fuzz(func(t *testing.T, seed int64, kind uint8, pf bool) {
		rng := rand.New(rand.NewSource(seed))
		minSets := 1
		if pf {
			minSets = 2
		}
		levels := randomHierarchy(rng, minSets)
		k := streamKinds[int(kind)%len(streamKinds)]
		addrs := diffStream(rng, k, levels, 2000)
		checkAgainstReference(t, levels, pf, addrs)
		checkBatchAgainstReference(t, rng, levels, pf, addrs)
	})
}
