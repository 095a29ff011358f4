package mpi_test

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"tracex/internal/machine"
	"tracex/internal/mpi"
	"tracex/internal/psins"
	"tracex/internal/synthapp"
)

// checkRoutes compiles the n-rank program that build describes both ways:
// straight from the Builder's patterns (mpi.Compile, the predict path) and
// from BuildProgram's materialized program (Program.Compile). Both must
// give every op the same kind and payload or (block, share) pair. The two
// routes number message slots differently, so one slot map, one-to-one
// from the first route's slots onto the second's, must carry every op's
// slot to its counterpart's. Replaying the two schedules must give
// bit-identical Results and identical timelines.
func checkRoutes(t *testing.T, app string, n int, build func(*mpi.Builder)) {
	t.Helper()
	direct, err := mpi.Compile(app, n, build)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	prog, err := mpi.BuildProgram(app, n, build)
	if err != nil {
		t.Fatalf("BuildProgram: %v", err)
	}
	viaProg, err := prog.Compile()
	if err != nil {
		t.Fatalf("Program.Compile: %v", err)
	}
	if !slices.Equal(direct.Off, viaProg.Off) || len(direct.Ops) != len(viaProg.Ops) {
		t.Fatalf("rank offsets %v and %v", direct.Off, viaProg.Off)
	}
	if direct.Messages != viaProg.Messages || direct.Collectives != viaProg.Collectives {
		t.Fatalf("%d messages and %d collectives, via the program %d and %d",
			direct.Messages, direct.Collectives, viaProg.Messages, viaProg.Collectives)
	}
	// toProg and fromProg hold the slot map and its inverse; -1, no slot,
	// maps to itself.
	toProg := map[int32]int32{-1: -1}
	fromProg := map[int32]int32{-1: -1}
	for i, a := range direct.Ops {
		b := viaProg.Ops[i]
		if a.Kind != b.Kind {
			t.Fatalf("op %d: %s, via the program %s", i, a.Kind, b.Kind)
		}
		if a.Slot < -1 || a.Slot >= int32(direct.Slots) {
			t.Fatalf("op %d: %s in slot %d outside [-1,%d)", i, a.Kind, a.Slot, direct.Slots)
		}
		to, seen := toProg[a.Slot]
		from, seenFrom := fromProg[b.Slot]
		if (seen && to != b.Slot) || (seenFrom && from != a.Slot) {
			t.Fatalf("op %d: %s in slot %d, via the program in slot %d; the slot map is not one-to-one", i, a.Kind, a.Slot, b.Slot)
		}
		toProg[a.Slot], fromProg[b.Slot] = b.Slot, a.Slot
		if a.Kind == mpi.Compute {
			if direct.Computes[a.Arg] != viaProg.Computes[b.Arg] {
				t.Fatalf("op %d computes %+v, via the program %+v", i, direct.Computes[a.Arg], viaProg.Computes[b.Arg])
			}
		} else if a.Arg != b.Arg {
			t.Fatalf("op %d carries %d bytes, via the program %d", i, a.Arg, b.Arg)
		}
	}

	if len(toProg)-1 != direct.Messages || viaProg.Slots != viaProg.Messages {
		t.Fatalf("%d slots used for %d messages; the program's %d slots for %d messages",
			len(toProg)-1, direct.Messages, viaProg.Slots, viaProg.Messages)
	}

	net, err := psins.NewNetwork(machine.NetworkConfig{LatencyUS: 5, BandwidthGBs: 2, OverheadUS: 1})
	if err != nil {
		t.Fatal(err)
	}
	cost := func(rank int, block uint64, share float64) (float64, error) {
		return (float64(block) + float64(rank%3)/7) * share * 1e-3, nil
	}
	replay := func(s *psins.Schedule, err error) (*psins.Result, *psins.Timeline) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var tl psins.Timeline
		res, err := s.Replay(context.Background(), net, cost, &tl)
		if err != nil {
			t.Fatal(err)
		}
		return res, &tl
	}
	resA, tlA := replay(psins.CompileBuild(app, n, build))
	resB, tlB := replay(psins.Compile(prog))
	if !sameBits(resA, resB) {
		t.Fatalf("replays differ:\n%+v\n%+v", resA, resB)
	}
	if !reflect.DeepEqual(tlA, tlB) {
		t.Fatal("replay timelines differ")
	}
}

// sameBits reports whether two replay results are bit-identical.
func sameBits(a, b *psins.Result) bool {
	same := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	return math.Float64bits(a.Runtime) == math.Float64bits(b.Runtime) && a.Messages == b.Messages &&
		same(a.RankEnd, b.RankEnd) && same(a.ComputeTime, b.ComputeTime) && same(a.CommTime, b.CommTime)
}

// checkComposition runs checkRoutes on the random Builder composition that
// choices describe.
func checkComposition(t *testing.T, choices []byte) {
	t.Helper()
	n, build := mpi.Composition(choices)
	checkRoutes(t, "diff", n, build)
}

// TestCompileRoutesAgree runs checkRoutes on 300 random compositions.
func TestCompileRoutesAgree(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		choices := make([]byte, r.Intn(40))
		r.Read(choices)
		checkComposition(t, choices)
	}
}

// TestCompileRoutesAgreeOnProxies runs checkRoutes on every proxy
// application's program at its smallest core count, at an irregular count
// above it and at twice it.
func TestCompileRoutesAgreeOnProxies(t *testing.T) {
	for _, name := range synthapp.Names() {
		app, err := synthapp.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		lo, _ := app.CoreRange()
		for _, p := range []int{lo, lo + 37, 2 * lo} {
			build, err := app.Build(p)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(name+"@"+strconv.Itoa(p), func(t *testing.T) { checkRoutes(t, name, p, build) })
		}
	}
}

// FuzzCompileRoutesAgree runs checkRoutes on compositions the fuzzer's
// bytes describe.
func FuzzCompileRoutesAgree(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{6, 0, 5, 3, 200, 1, 4, 7, 9})
	f.Add([]byte{3, 1, 3, 3, 17, 2, 4, 0, 1, 2, 3})
	f.Add([]byte{5, 2, 2, 2, 99, 1, 3, 0, 5, 4, 6, 6, 5, 1, 7, 7, 3})
	f.Fuzz(checkComposition)
}

// TestCompileRejectsInvalidEvents compiles the arguments of
// TestBuilderRejectsInvalidEvents, and a zero payload behind earlier events
// in every other pattern, through mpi.Compile. Each must fail with
// BuildProgram's error text, which must be the appending Builder's: the
// check of a call's first event stands for the check of each event.
func TestCompileRejectsInvalidEvents(t *testing.T) {
	g8, err := mpi.NewGrid3D(8)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		n     int
		build func(*mpi.Builder)
	}{
		"share":     {2, func(b *mpi.Builder) { b.Compute(0, 1, 1.5) }},
		"nan share": {2, func(b *mpi.Builder) { b.ComputeAll(1, math.NaN()) }},
		"bytes":     {2, func(b *mpi.Builder) { b.SendRecv(0, 1, 0, 0) }},
		"root":      {2, func(b *mpi.Builder) { b.Collective(mpi.Bcast, 5, 8) }},
		"zero coll": {2, func(b *mpi.Builder) { b.Allreduce(0) }},

		"late share":            {3, func(b *mpi.Builder) { b.ComputeAll(1, 0.5).Compute(2, 1, 0) }},
		"late bytes":            {3, func(b *mpi.Builder) { b.SendRecv(1, 2, 0, 8).SendRecv(2, 1, 0, 0) }},
		"halo bytes":            {8, func(b *mpi.Builder) { b.ComputeAll(1, 0.5).HaloExchange3D(g8, 0, 0) }},
		"nonblocking halo":      {8, func(b *mpi.Builder) { b.Collective(mpi.Barrier, 0, 0).HaloExchange3DNonblocking(g8, 0, 0) }},
		"bytes after allreduce": {3, func(b *mpi.Builder) { b.Allreduce(8).SendRecv(0, 1, 4, 0) }},
		"reduce root":           {4, func(b *mpi.Builder) { b.Collective(mpi.Barrier, 0, 0).Collective(mpi.Reduce, -1, 8) }},
		"share, then bad rank":  {2, func(b *mpi.Builder) { b.Compute(1, 1, 2).SendRecv(0, 0, 0, 8) }},
		"halo, then bad bytes":  {8, func(b *mpi.Builder) { b.HaloExchange3DNonblocking(g8, 8, 0).SendRecv(7, 3, 0, 0) }},
		"bad grid, then bytes":  {8, func(b *mpi.Builder) { b.HaloExchange3D(mpi.Grid3D{Px: 2, Py: 2, Pz: 1}, 8, 0).Allreduce(0) }},
		"not a collective":      {2, func(b *mpi.Builder) { b.Collective(mpi.Send, 0, 8) }},
		"compute on a bad rank": {2, func(b *mpi.Builder) { b.Compute(2, 1, 0.5) }},
	} {
		b := mpi.NewBuilder("x", c.n)
		c.build(b)
		_, appended := b.Build()
		_, built := mpi.BuildProgram("x", c.n, c.build)
		_, compiled := mpi.Compile("x", c.n, c.build)
		if appended == nil || built == nil || compiled == nil ||
			compiled.Error() != built.Error() || built.Error() != appended.Error() {
			t.Errorf("%s: Compile error %v, BuildProgram %v, appending Builder %v", name, compiled, built, appended)
		}
	}
}
