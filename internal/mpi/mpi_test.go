package mpi

import (
	"math"
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
	p, err := NewBuilder("demo", 2).
		ComputeAll(1, 1.0).
		SendRecv(0, 1, 7, 1024).
		Allreduce(8).
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if p.NumRanks() != 2 {
		t.Fatalf("NumRanks = %d", p.NumRanks())
	}
	if p.TotalMessages() != 1 || p.TotalBytes() != 1024 {
		t.Errorf("messages=%d bytes=%d", p.TotalMessages(), p.TotalBytes())
	}
	// Rank 0: compute, send, allreduce. Rank 1: compute, recv, allreduce.
	if p.Ranks[0][1].Kind != Send || p.Ranks[1][1].Kind != Recv {
		t.Errorf("unexpected event sequence")
	}
}

func TestBuilderErrorsStick(t *testing.T) {
	b := NewBuilder("demo", 2).Compute(5, 1, 1.0) // bad rank
	if b.Err() == nil {
		t.Fatal("bad rank accepted")
	}
	// Subsequent calls keep the first error.
	b.ComputeAll(1, 1.0).SendRecv(0, 1, 0, 8)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build should fail")
	}
	if _, err := NewBuilder("demo", 0).Build(); err == nil {
		t.Error("zero ranks accepted")
	}
	if _, err := NewBuilder("demo", 2).SendRecv(0, 0, 0, 8).Build(); err == nil {
		t.Error("self message accepted")
	}
	if _, err := NewBuilder("demo", 2).Collective(Send, 0, 8).Build(); err == nil {
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

func TestGrid3DCoordsRankRoundTrip(t *testing.T) {
	g, _ := NewGrid3D(24)
	for r := 0; r < 24; r++ {
		x, y, z := g.Coords(r)
		if got := g.Rank(x, y, z); got != r {
			t.Errorf("round trip for rank %d gave %d", r, got)
		}
	}
}

func TestSurfaceFraction(t *testing.T) {
	g, _ := NewGrid3D(8)
	// 8^3 cells over 8 ranks: 64 cells each, surface fraction 64^(2/3)/64 = 16/64.
	got := g.SurfaceFraction(512)
	if math.Abs(got-0.25) > 1e-9 {
		t.Errorf("SurfaceFraction = %g, want 0.25", got)
	}
	if g.SurfaceFraction(0) != 0 {
		t.Error("zero cells should give zero fraction")
	}
}

func TestHaloExchange3D(t *testing.T) {
	g, _ := NewGrid3D(8) // 2x2x2
	p, err := NewBuilder("halo", 8).HaloExchange3D(g, 4096, 100).Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Every rank in a 2x2x2 grid has exactly 3 neighbors: 24 messages.
	if got := p.TotalMessages(); got != 24 {
		t.Errorf("TotalMessages = %d, want 24", got)
	}
	if got := p.TotalBytes(); got != 24*4096 {
		t.Errorf("TotalBytes = %d", got)
	}
}

func TestHaloExchange3DBoundaryRanksFewerNeighbors(t *testing.T) {
	g, _ := NewGrid3D(27) // 3x3x3
	p, err := NewBuilder("halo", 27).HaloExchange3D(g, 64, 0).Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	sums := Profile(p)
	corner := sums[g.Rank(0, 0, 0)]
	center := sums[g.Rank(1, 1, 1)]
	if corner.Messages != 3 {
		t.Errorf("corner sends %d messages, want 3", corner.Messages)
	}
	if center.Messages != 6 {
		t.Errorf("center sends %d messages, want 6", center.Messages)
	}
}

func TestHaloExchangeGridMismatch(t *testing.T) {
	g, _ := NewGrid3D(8)
	if _, err := NewBuilder("halo", 4).HaloExchange3D(g, 64, 0).Build(); err == nil {
		t.Error("grid/rank mismatch accepted")
	}
}

func TestRing(t *testing.T) {
	p, err := NewBuilder("ring", 4).Ring(256, 5).Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if p.TotalMessages() != 4 {
		t.Errorf("messages = %d, want 4", p.TotalMessages())
	}
	// Single-rank ring: no messages, still valid.
	p, err = NewBuilder("ring", 1).Compute(0, 1, 1).Ring(256, 5).Build()
	if err != nil {
		t.Fatalf("1-rank Build: %v", err)
	}
	if p.TotalMessages() != 0 {
		t.Error("1-rank ring generated messages")
	}
}

func TestProfile(t *testing.T) {
	p, err := NewBuilder("demo", 3).
		Compute(0, 10, 0.5).
		Compute(0, 10, 0.5).
		Compute(1, 10, 1.0).
		Compute(2, 11, 1.0).
		SendRecv(0, 1, 0, 100).
		SendRecv(2, 1, 0, 50).
		Barrier().
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	sums := Profile(p)
	if sums[0].ComputeShare[10] != 1.0 {
		t.Errorf("rank 0 share = %g", sums[0].ComputeShare[10])
	}
	if sums[0].SendBytes != 100 || sums[1].RecvBytes != 150 {
		t.Errorf("volumes: send0=%d recv1=%d", sums[0].SendBytes, sums[1].RecvBytes)
	}
	if sums[1].Collectives != 1 {
		t.Errorf("collectives = %d", sums[1].Collectives)
	}
}

func TestDominantRank(t *testing.T) {
	p, err := NewBuilder("demo", 3).
		Compute(0, 1, 1.0).
		Compute(1, 1, 1.0).
		Compute(1, 2, 1.0). // rank 1 does extra work
		Compute(2, 1, 1.0).
		Barrier().
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	weight := func(blockID uint64, share float64) float64 { return share }
	if got := DominantRank(p, weight); got != 1 {
		t.Errorf("DominantRank = %d, want 1", got)
	}
	// Tie: lowest rank wins.
	p2, _ := NewBuilder("demo", 2).ComputeAll(1, 1.0).Build()
	if got := DominantRank(p2, weight); got != 0 {
		t.Errorf("tie DominantRank = %d, want 0", got)
	}
}

// Property: programs built from random mixtures of builder patterns always
// validate (the builder maintains the structural invariants), under both
// validators, and their slots pair the k-th send and receive of every
// channel. Build does not re-validate, so this is what keeps its programs
// sound.
func TestBuilderAlwaysValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		p, err := composeProgram(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Logf("seed %d: Build: %v", seed, err)
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
