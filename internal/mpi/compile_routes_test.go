package mpi_test

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"tracex/internal/mpi"
	"tracex/internal/synthapp"
)

// checkRoutes compiles the n-rank program that build describes both ways:
// straight from the Builder's patterns (mpi.Compile, the predict path) and
// from the appending reference's program (mpi.AppendProgram, compiled by
// Program.Compile). Both must give every op the same kind and payload or
// (block, share) pair. The two routes number message slots differently,
// so one slot map, one-to-one from the first route's slots onto the
// second's, must carry every op's slot to its counterpart's. A replay
// reads only an op's kind, its payload or (block, share) pair and its slot
// as the name of a message, so two programs that agree this way replay to
// bit-identical Results and timelines.
func checkRoutes(t *testing.T, app string, n int, build func(*mpi.Builder)) {
	t.Helper()
	direct, err := mpi.Compile(app, n, build)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	prog, err := mpi.AppendProgram(app, n, build)
	if err != nil {
		t.Fatalf("AppendProgram: %v", err)
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
// in every other pattern, through mpi.Compile. Each must fail with the
// appending reference's error text, which checks every event: the check of
// a call's first event stands for the check of each event.
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
		_, appended := mpi.AppendProgram("x", c.n, c.build)
		_, compiled := mpi.Compile("x", c.n, c.build)
		if appended == nil || compiled == nil || compiled.Error() != appended.Error() {
			t.Errorf("%s: Compile error %v, appending reference %v", name, compiled, appended)
		}
	}
}
