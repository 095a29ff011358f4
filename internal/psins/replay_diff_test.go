package psins

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"tracex/internal/machine"
	"tracex/internal/mpi"
	"tracex/internal/obs"
	"tracex/internal/synthapp"
)

// These tests hold Replay, which prices a Builder description's events in
// one walk, to the compiled replay of oracle_test.go, which schedules the
// same description's compiled ops rank by rank.

// hashCost prices share of block on rank from a hash of (seed, rank,
// block), so that a cost does not depend on the order the replay asks for
// it. About one pair in eight costs nothing.
func hashCost(seed uint64) ComputeCost {
	return func(rank int, block uint64, share float64) (float64, error) {
		h := seed ^ uint64(rank)*0x9e3779b97f4a7c15 ^ block*0xbf58476d1ce4e5b9
		h ^= h >> 31
		h *= 0x94d049bb133111eb
		h ^= h >> 29
		if h&7 == 0 {
			return 0, nil
		}
		return share * float64(h>>11) / (1 << 53) * 1e-3, nil
	}
}

// chooser draws decisions from fuzz input, answering 0 once drained.
type chooser struct{ b []byte }

func (c *chooser) intn(n int) int {
	if len(c.b) == 0 || n <= 1 {
		return 0
	}
	v := int(c.b[0]) % n
	c.b = c.b[1:]
	return v
}

// collectiveKinds are the collectives a composition draws from.
var collectiveKinds = []mpi.EventKind{mpi.Barrier, mpi.Allreduce, mpi.Bcast, mpi.Alltoall, mpi.Reduce, mpi.Allgather}

// composeReplay draws from choices a rank count in [1, 64], a network, a
// cost seed and a description of random pattern calls with valid
// arguments: one-rank computes, computes on every rank, messages, every
// collective kind and both halo exchanges, with payloads from 1 B to
// ~16 MB so that large collectives take their ring algorithms. Every call
// of build describes the same program.
func composeReplay(t *testing.T, choices []byte) (int, func(*mpi.Builder), Network, ComputeCost) {
	c := &chooser{b: choices}
	n := 1 + c.intn(64)
	net, err := NewNetwork(machine.NetworkConfig{
		LatencyUS:    float64(c.intn(20)) / 2,
		BandwidthGBs: float64(1+c.intn(40)) / 4,
		OverheadUS:   float64(c.intn(8)) / 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	cost := hashCost(uint64(c.intn(256)) << 8)
	g, err := mpi.NewGrid3D(n)
	if err != nil {
		t.Fatal(err)
	}
	rest := c.b
	return n, func(b *mpi.Builder) {
		c := &chooser{b: rest}
		for calls := 1 + c.intn(12); calls > 0; calls-- {
			bytes := uint64(1+c.intn(255)) << (4 * c.intn(5))
			block := uint64(1 + c.intn(4))
			switch c.intn(7) {
			case 0:
				b.ComputeAll(block, float64(1+c.intn(10))/10)
			case 1:
				b.Compute(c.intn(n), block, 0.5)
			case 2:
				b.HaloExchange3D(g, bytes, 10*c.intn(3))
			case 3:
				b.HaloExchange3DNonblocking(g, bytes, 10*c.intn(3))
			case 4:
				if n > 1 {
					src := c.intn(n)
					b.SendRecv(src, (src+1+c.intn(n-1))%n, c.intn(3), bytes)
				}
			case 5, 6:
				b.Collective(collectiveKinds[c.intn(len(collectiveKinds))], c.intn(n), bytes)
			}
		}
	}, net, cost
}

// byRank groups a timeline's segments by rank, each rank's in the order
// the timeline lists them.
func byRank(tl *Timeline, n int) [][]Segment {
	ranks := make([][]Segment, n)
	for _, s := range tl.Segments {
		ranks[s.Rank] = append(ranks[s.Rank], s)
	}
	return ranks
}

// checkReplayMatchesOracle replays the n-rank program that build describes
// with Replay and with the compiled replay. The Results must be
// bit-identical, the psins.events and psins.messages counters must move
// alike, and each rank's timeline segments must be the same sequence.
func checkReplayMatchesOracle(t *testing.T, n int, build func(*mpi.Builder), net Network, cost ComputeCost) {
	t.Helper()
	sched, err := CompileBuild("oracle", n, build)
	if err != nil {
		t.Fatalf("CompileBuild: %v", err)
	}
	walked, compiled := obs.New(), obs.New()
	var gotTL, wantTL Timeline
	got, err := Replay(obs.Into(context.Background(), walked), n, build, net, cost, &gotTL)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	want, err := sched.Replay(obs.Into(context.Background(), compiled), net, cost, &wantTL)
	if err != nil {
		t.Fatalf("compiled replay: %v", err)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.Runtime, want.Runtime) || got.Messages != want.Messages {
		t.Fatalf("Runtime %v and %d messages, compiled replay %v and %d",
			got.Runtime, got.Messages, want.Runtime, want.Messages)
	}
	for _, f := range []struct {
		name      string
		got, want []float64
	}{
		{"RankEnd", got.RankEnd, want.RankEnd},
		{"ComputeTime", got.ComputeTime, want.ComputeTime},
		{"CommTime", got.CommTime, want.CommTime},
	} {
		if !slices.EqualFunc(f.got, f.want, same) {
			t.Fatalf("%s %v, compiled replay %v", f.name, f.got, f.want)
		}
	}
	for _, name := range []string{"psins.events", "psins.messages"} {
		if a, b := walked.Counter(name).Value(), compiled.Counter(name).Value(); a != b {
			t.Fatalf("%s moved by %d, compiled replay by %d", name, a, b)
		}
	}
	gotRanks, wantRanks := byRank(&gotTL, n), byRank(&wantTL, n)
	for r := range gotRanks {
		if !slices.Equal(gotRanks[r], wantRanks[r]) {
			t.Fatalf("rank %d timeline %v, compiled replay %v", r, gotRanks[r], wantRanks[r])
		}
	}
}

// checkComposition runs checkReplayMatchesOracle on the composition that
// choices describe.
func checkComposition(t *testing.T, choices []byte) {
	t.Helper()
	n, build, net, cost := composeReplay(t, choices)
	checkReplayMatchesOracle(t, n, build, net, cost)
}

// TestReplayMatchesOracle runs checkReplayMatchesOracle on 300 random
// compositions.
func TestReplayMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		choices := make([]byte, 4+r.Intn(60))
		r.Read(choices)
		checkComposition(t, choices)
	}
}

// FuzzReplayMatchesOracle runs checkReplayMatchesOracle on compositions the
// fuzzer's bytes describe.
func FuzzReplayMatchesOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{26, 3, 17, 2, 200, 9, 3, 40, 1, 3, 3, 1, 0, 2})
	f.Add([]byte{63, 1, 39, 5, 77, 11, 250, 3, 4, 2, 1, 5, 0, 3, 255, 4, 1, 2, 6, 1, 6})
	f.Add([]byte{12, 19, 0, 7, 3, 8, 4, 3, 0, 4, 5, 1, 4, 2, 2, 2, 2, 1, 6, 2, 4, 7})
	f.Fuzz(checkComposition)
}

// TestReplayTimelineMatchesOracleOnProxies runs checkReplayMatchesOracle,
// timelines included, on every proxy application at its smallest core
// count, at an irregular count above it, and at 1,024 ranks or the
// nearest count its range allows.
func TestReplayTimelineMatchesOracleOnProxies(t *testing.T) {
	net := testNet(t)
	for _, name := range synthapp.Names() {
		app, err := synthapp.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		lo, _ := app.CoreRange()
		counts := []int{lo, lo + 37}
		if lo+37 < 1024 {
			counts = append(counts, 1024)
		}
		for _, p := range counts {
			build, err := app.Build(p)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(name+"@"+strconv.Itoa(p), func(t *testing.T) {
				checkReplayMatchesOracle(t, p, build, net, hashCost(uint64(p)))
			})
		}
	}
}

// TestReplayRejectsWhatCompileRejects: a description that mpi.Compile
// rejects fails Replay with the same error, and a cost callback's error
// fails it too.
func TestReplayRejectsWhatCompileRejects(t *testing.T) {
	net := testNet(t)
	for name, c := range map[string]struct {
		n     int
		build func(*mpi.Builder)
	}{
		"late bytes": {3, func(b *mpi.Builder) { b.ComputeAll(1, 0.5).SendRecv(1, 2, 0, 8).SendRecv(2, 1, 0, 0) }},
		"bad rank":   {2, func(b *mpi.Builder) { b.Compute(2, 1, 0.5) }},
		"no ranks":   {0, func(b *mpi.Builder) {}},
	} {
		_, want := mpi.Compile("x", c.n, c.build)
		_, got := Replay(context.Background(), c.n, c.build, net, flatCost(1), nil)
		if c.n <= 0 {
			if got == nil {
				t.Errorf("%s: Replay accepted %d ranks", name, c.n)
			}
			continue
		}
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("%s: Replay error %v, Compile %v", name, got, want)
		}
	}
	boom := errors.New("boom")
	failing := func(rank int, block uint64, share float64) (float64, error) {
		if rank == 1 {
			return 0, boom
		}
		return share, nil
	}
	if _, err := replayBuild(2, func(b *mpi.Builder) { b.ComputeAll(1, 1) }, net, failing); !errors.Is(err, boom) {
		t.Errorf("cost error: got %v", err)
	}
}

// TestReplayCancellation: Replay returns the context's error when it is
// cancelled, whether the program's pattern calls price computes or only
// send messages.
func TestReplayCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	net := testNet(t)
	for name, build := range map[string]func(*mpi.Builder){
		"compute": func(b *mpi.Builder) { b.ComputeAll(1, 1) },
		"messages": func(b *mpi.Builder) {
			for i := 0; i < 2*(ctxCheckMask+1); i++ {
				b.SendRecv(i%2, 1-i%2, 0, 8)
			}
		},
	} {
		if _, err := Replay(ctx, 2, build, net, flatCost(1), nil); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled replay returned %v", name, err)
		}
	}
}
