package mpi

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEventKindString(t *testing.T) {
	if Compute.String() != "compute" || Allreduce.String() != "allreduce" {
		t.Error("kind names wrong")
	}
	if !strings.Contains(EventKind(99).String(), "99") {
		t.Error("unknown kind should include numeric value")
	}
}

func TestIsCollective(t *testing.T) {
	for _, k := range []EventKind{Barrier, Allreduce, Bcast, Alltoall} {
		if !k.IsCollective() {
			t.Errorf("%s should be collective", k)
		}
	}
	for _, k := range []EventKind{Compute, Send, Recv} {
		if k.IsCollective() {
			t.Errorf("%s should not be collective", k)
		}
	}
}

func TestEventValidate(t *testing.T) {
	cases := []struct {
		name string
		e    Event
		ok   bool
	}{
		{"good compute", Event{Kind: Compute, BlockID: 1, Share: 0.5}, true},
		{"zero share", Event{Kind: Compute, BlockID: 1, Share: 0}, false},
		{"share above one", Event{Kind: Compute, Share: 1.5}, false},
		{"good send", Event{Kind: Send, Peer: 1, Bytes: 64}, true},
		{"send to self", Event{Kind: Send, Peer: 0, Bytes: 64}, false},
		{"send out of range", Event{Kind: Send, Peer: 8, Bytes: 64}, false},
		{"zero-byte send", Event{Kind: Send, Peer: 1}, false},
		{"good recv", Event{Kind: Recv, Peer: 2, Bytes: 8}, true},
		{"good barrier", Event{Kind: Barrier}, true},
		{"good allreduce", Event{Kind: Allreduce, Bytes: 8}, true},
		{"zero allreduce", Event{Kind: Allreduce}, false},
		{"bcast bad root", Event{Kind: Bcast, Peer: -1, Bytes: 8}, false},
		{"unknown kind", Event{Kind: EventKind(42)}, false},
	}
	for _, c := range cases {
		err := c.e.Validate(0, 4)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestBuilderSimpleProgram(t *testing.T) {
	p, err := Compile("demo", 2, func(b *Builder) {
		b.ComputeAll(1, 1.0).SendRecv(0, 1, 7, 1024).Allreduce(8)
	})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(p.Off) != 3 {
		t.Fatalf("%d rank offsets, want 3", len(p.Off))
	}
	if p.Messages != 1 || p.PayloadBytes() != 1024 || p.Collectives != 1 {
		t.Errorf("messages=%d bytes=%d collectives=%d", p.Messages, p.PayloadBytes(), p.Collectives)
	}
	// Rank 0: compute, send, allreduce. Rank 1: compute, recv, allreduce.
	for r, want := range [][]EventKind{{Compute, Send, Allreduce}, {Compute, Recv, Allreduce}} {
		ops := p.Ops[p.Off[r]:p.Off[r+1]]
		if len(ops) != len(want) {
			t.Fatalf("rank %d has %d ops, want %d", r, len(ops), len(want))
		}
		for i, k := range want {
			if ops[i].Kind != k {
				t.Errorf("rank %d op %d is %s, want %s", r, i, ops[i].Kind, k)
			}
		}
	}
}

func TestBuilderErrorsStick(t *testing.T) {
	_, first := Compile("demo", 2, func(b *Builder) { b.Compute(5, 1, 1.0) }) // bad rank
	if first == nil {
		t.Fatal("bad rank accepted")
	}
	// Later calls, an invalid one among them, keep the first error.
	_, err := Compile("demo", 2, func(b *Builder) {
		b.Compute(5, 1, 1.0).ComputeAll(1, 1.0).SendRecv(0, 1, 0, 8).Allreduce(0)
	})
	if err == nil || err.Error() != first.Error() {
		t.Fatalf("Compile error = %v, want the first error %v", err, first)
	}
	if _, err := Compile("demo", 2, func(b *Builder) { b.SendRecv(0, 0, 0, 8) }); err == nil {
		t.Error("self message accepted")
	}
	if _, err := Compile("demo", 2, func(b *Builder) { b.Collective(Send, 0, 8) }); err == nil {
		t.Error("non-collective kind accepted by Collective")
	}
}

func TestProgramValidateCatchesImbalance(t *testing.T) {
	// Hand-built program with a send that has no matching recv.
	p := &Program{App: "x", Ranks: [][]Event{
		{{Kind: Send, Peer: 1, Tag: 0, Bytes: 8}},
		{},
	}}
	if err := p.Validate(); err == nil {
		t.Error("unmatched send accepted")
	}
	// Mismatched collective counts.
	p = &Program{App: "x", Ranks: [][]Event{
		{{Kind: Barrier}},
		{},
	}}
	if err := p.Validate(); err == nil {
		t.Error("collective imbalance accepted")
	}
	// Recv with no send.
	p = &Program{App: "x", Ranks: [][]Event{
		{},
		{{Kind: Recv, Peer: 0, Tag: 3, Bytes: 8}},
	}}
	if err := p.Validate(); err == nil {
		t.Error("orphan recv accepted")
	}
	if err := (&Program{}).Validate(); err == nil {
		t.Error("empty program accepted")
	}
}

func TestNewGrid3DFactorizations(t *testing.T) {
	cases := []struct {
		n          int
		px, py, pz int
	}{
		{1, 1, 1, 1},
		{8, 2, 2, 2},
		{64, 4, 4, 4},
		{96, 4, 4, 6},
		{1024, 8, 8, 16},
		{6144, 16, 16, 24},
		{8192, 16, 16, 32},
		{7, 1, 1, 7}, // prime: degenerate grid
	}
	for _, c := range cases {
		g, err := NewGrid3D(c.n)
		if err != nil {
			t.Fatalf("NewGrid3D(%d): %v", c.n, err)
		}
		if g.Size() != c.n {
			t.Errorf("grid for %d has size %d", c.n, g.Size())
		}
		if g.Px != c.px || g.Py != c.py || g.Pz != c.pz {
			t.Errorf("grid for %d = %dx%dx%d, want %dx%dx%d",
				c.n, g.Px, g.Py, g.Pz, c.px, c.py, c.pz)
		}
	}
	if _, err := NewGrid3D(0); err == nil {
		t.Error("zero ranks accepted")
	}
}

// TestGrid3DCoordsRankRoundTrip: the reference's coordinates round-trip
// through rankAt, and the pattern compiler's grid walk visits every rank in
// rank order at the reference's coordinates, with the reference's
// neighbors.
func TestGrid3DCoordsRankRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 7, 8, 12, 24, 27, 96, 1024} {
		g, err := NewGrid3D(n)
		if err != nil {
			t.Fatal(err)
		}
		w := gridWalk{g: g}
		for r := 0; r < n; r++ {
			x, y, z := coords(g, r)
			if got := rankAt(g, x, y, z); got != r {
				t.Errorf("%d ranks: round trip for rank %d gave %d", n, r, got)
			}
			if w.r != r || w.x != x || w.y != y || w.z != z {
				t.Fatalf("%d ranks: walk at rank %d (%d,%d,%d), want rank %d (%d,%d,%d)", n, w.r, w.x, w.y, w.z, r, x, y, z)
			}
			if got, want := w.neighbors(), referenceNeighbors(g, r); got != want {
				t.Fatalf("%d ranks: rank %d neighbors %v, want %v", n, r, got, want)
			}
			w.next()
		}
	}
}

// sends counts the Send ops of each rank of p.
func sends(p *Compiled) []int {
	out := make([]int, len(p.Off)-1)
	for r := range out {
		for _, op := range p.Ops[p.Off[r]:p.Off[r+1]] {
			if op.Kind == Send {
				out[r]++
			}
		}
	}
	return out
}

func TestHaloExchange3D(t *testing.T) {
	g, _ := NewGrid3D(8) // 2x2x2
	p, err := Compile("halo", 8, func(b *Builder) { b.HaloExchange3D(g, 4096, 100) })
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	// Every rank in a 2x2x2 grid has exactly 3 neighbors: 24 messages.
	if p.Messages != 24 {
		t.Errorf("Messages = %d, want 24", p.Messages)
	}
	if got := p.PayloadBytes(); got != 24*4096 {
		t.Errorf("PayloadBytes = %d", got)
	}
}

func TestHaloExchange3DBoundaryRanksFewerNeighbors(t *testing.T) {
	g, _ := NewGrid3D(27) // 3x3x3
	p, err := Compile("halo", 27, func(b *Builder) { b.HaloExchange3D(g, 64, 0) })
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	got := sends(p)
	if c := got[rankAt(g, 0, 0, 0)]; c != 3 {
		t.Errorf("corner sends %d messages, want 3", c)
	}
	if c := got[rankAt(g, 1, 1, 1)]; c != 6 {
		t.Errorf("center sends %d messages, want 6", c)
	}
	for r, c := range got {
		want := 0
		for _, peer := range referenceNeighbors(g, r) {
			if peer >= 0 {
				want++
			}
		}
		if c != want {
			t.Errorf("rank %d sends %d messages, it has %d neighbors", r, c, want)
		}
	}
}

func TestHaloExchangeGridMismatch(t *testing.T) {
	g, _ := NewGrid3D(8)
	if _, err := Compile("halo", 4, func(b *Builder) { b.HaloExchange3D(g, 64, 0) }); err == nil {
		t.Error("grid/rank mismatch accepted")
	}
}

// Property: programs built from random mixtures of builder patterns always
// validate (the patterns maintain the structural invariants), under both
// validators, and their slots pair the k-th send and receive of every
// channel. The pattern compiler does not validate the events it writes, so
// this, with checkRoutes, is what keeps its programs sound.
func TestBuilderAlwaysValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		p, err := composeProgram(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Logf("seed %d: appendProgram: %v", seed, err)
			return false
		}
		if err := checkMatch(p); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
