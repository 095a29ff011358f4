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

// checkRoutes takes the n-rank program that build describes three ways:
// compiled straight from the Builder's patterns (mpi.Compile), compiled
// from the appending reference's program (mpi.AppendProgram, compiled by
// Program.Compile), and walked (mpi.Walk, the replay's route). Both
// compiles must give every op the same kind and payload or (block, share)
// pair. The two compile routes number message slots differently, so one
// slot map, one-to-one from the first route's slots onto the second's,
// must carry every op's slot to its counterpart's. A replay reads only an
// op's kind, its payload or (block, share) pair and its slot as the name
// of a message, so two programs that agree this way replay to
// bit-identical Results and timelines. The walk is held to the reference's
// events by checkWalk.
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
	checkWalk(t, prog, len(direct.Ops), build)
}

// walked is an event as a replay sees it: its kind, the payload of a
// communication event, the (block, share) pair of a compute event, and
// the other rank of a point-to-point message, -1 for every other event.
type walked struct {
	kind  mpi.EventKind
	bytes uint64
	block uint64
	share float64
	peer  int
}

// recorder is a Visitor that writes down each rank's events. Its M names
// a message by its position in sends plus one, so that the zero M names
// none.
type recorder struct {
	t     *testing.T
	ranks [][]walked
	sends []sent
}

// sent is a message a Send handed over: its sender and the Send's position
// in that rank's events, and whether a Receive has taken it.
type sent struct {
	src, at  int
	received bool
}

func (w *recorder) Compute(lo, hi int, block uint64, share float64) error {
	for r := lo; r < hi; r++ {
		w.ranks[r] = append(w.ranks[r], walked{kind: mpi.Compute, block: block, share: share, peer: -1})
	}
	return nil
}

func (w *recorder) Collective(kind mpi.EventKind, bytes uint64) error {
	for r := range w.ranks {
		w.ranks[r] = append(w.ranks[r], walked{kind: kind, bytes: bytes, peer: -1})
	}
	return nil
}

func (w *recorder) Send(r int, kind mpi.EventKind, bytes uint64) int {
	w.ranks[r] = append(w.ranks[r], walked{kind: kind, bytes: bytes, peer: -1})
	w.sends = append(w.sends, sent{src: r, at: len(w.ranks[r]) - 1})
	return len(w.sends)
}

func (w *recorder) Receive(r int, kind mpi.EventKind, m int) {
	if m < 1 || m > len(w.sends) || w.sends[m-1].received {
		w.t.Fatalf("rank %d: %s of message %d, which no Send handed over or a Receive took", r, kind, m)
	}
	msg := &w.sends[m-1]
	msg.received = true
	send := &w.ranks[msg.src][msg.at]
	send.peer = r
	w.ranks[r] = append(w.ranks[r], walked{kind: kind, bytes: send.bytes, peer: msg.src})
}

// replayView returns the events of each rank of prog that a replay acts
// on, as walked events: every event but an Irecv's post and an Isend's
// Wait, with the Wait of an Irecv carrying the Irecv's peer and payload.
func replayView(t *testing.T, prog *mpi.Program) [][]walked {
	ranks := make([][]walked, len(prog.Ranks))
	for r, evs := range prog.Ranks {
		posted := map[int]mpi.Event{}
		for _, e := range evs {
			w := walked{kind: e.Kind, bytes: e.Bytes, peer: -1}
			switch {
			case e.Kind == mpi.Compute:
				w = walked{kind: mpi.Compute, block: e.BlockID, share: e.Share, peer: -1}
			case e.Kind == mpi.Isend || e.Kind == mpi.Irecv:
				posted[e.Request] = e
				if e.Kind == mpi.Irecv {
					continue
				}
				w.peer = e.Peer
			case e.Kind == mpi.Wait:
				post, ok := posted[e.Request]
				if !ok {
					t.Fatalf("rank %d waits on unposted request %d", r, e.Request)
				}
				if post.Kind == mpi.Isend {
					continue
				}
				w = walked{kind: mpi.Wait, bytes: post.Bytes, peer: post.Peer}
			case e.Kind == mpi.Send || e.Kind == mpi.Recv:
				w.peer = e.Peer
			}
			ranks[r] = append(ranks[r], w)
		}
	}
	return ranks
}

// checkWalk walks the n-rank program that build describes with a
// recorder. Grouped by rank, the walk's events must be those of the
// appending reference's program prog that a replay acts on, in the same
// order, with the same kind, payload, (block, share) pair and peer. Every
// Receive must take a message that an earlier Send handed over and no
// other Receive took, every message must be received, and Walk must count
// ops events, every event of the compiled program.
func checkWalk(t *testing.T, prog *mpi.Program, ops int, build func(*mpi.Builder)) {
	t.Helper()
	n := len(prog.Ranks)
	w := &recorder{t: t, ranks: make([][]walked, n)}
	events, err := mpi.Walk[int](n, build, w)
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	if events != ops {
		t.Fatalf("Walk counted %d events, the compiled program has %d", events, ops)
	}
	for m, s := range w.sends {
		if !s.received {
			t.Fatalf("message %d from rank %d was never received", m+1, s.src)
		}
	}
	want := replayView(t, prog)
	for r := range want {
		if !slices.Equal(w.ranks[r], want[r]) {
			t.Fatalf("rank %d walked %v, the reference %v", r, w.ranks[r], want[r])
		}
	}
}

// discard is a Visitor that ignores every event.
type discard struct{}

func (discard) Compute(int, int, uint64, float64) error  { return nil }
func (discard) Collective(mpi.EventKind, uint64) error   { return nil }
func (discard) Send(int, mpi.EventKind, uint64) struct{} { return struct{}{} }
func (discard) Receive(int, mpi.EventKind, struct{})     {}

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
// in every other pattern, through mpi.Compile, and walks them through
// mpi.Walk. Each must fail with the appending reference's error text,
// which checks every event: the check of a call's first event stands for
// the check of each event.
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
		_, walkErr := mpi.Walk[struct{}](c.n, c.build, discard{})
		if walkErr == nil || walkErr.Error() != appended.Error() {
			t.Errorf("%s: Walk error %v, appending reference %v", name, walkErr, appended)
		}
	}
}
