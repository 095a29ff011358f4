package mpi

import "fmt"

// Builder incrementally constructs a Program. Methods that add
// communication patterns keep the per-rank event sequences deadlock-free
// under eager-send semantics (sends never block; receives are posted after
// the matching sends exist somewhere in the program). Every event is
// checked as it is appended and every pattern appends matched sends and
// receives, waited requests and collectives on all ranks, so a program
// built without error always passes Program.Validate. BuildProgram and
// Compile drive a Builder twice, first to size every rank's trace exactly.
type Builder struct {
	app   string
	n     int
	ranks [][]Event
	err   error
	// c, while non-nil, takes each pattern call instead of ranks: its dry
	// run checks the call and counts its ops, and once sized it compiles
	// the call.
	c *patterns
}

// NewBuilder returns a Builder for an application with n ranks.
func NewBuilder(app string, n int) *Builder {
	b := &Builder{app: app, n: n}
	if n <= 0 {
		b.err = fmt.Errorf("mpi: builder needs ≥1 rank, got %d", n)
	} else {
		b.ranks = make([][]Event, n)
	}
	return b
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

// add appends e to rank r's trace after checking it as Program.Validate
// does; an invalid event becomes the sticky error.
func (b *Builder) add(r int, e Event) {
	if b.err != nil {
		return
	}
	if err := e.Validate(r, b.n); err != nil {
		b.err = eventError(r, len(b.ranks[r]), err)
		return
	}
	b.ranks[r] = append(b.ranks[r], e)
}

// BuildProgram builds the n-rank program that build describes through the
// Builder's patterns, with every rank's events in one exactly sized array.
// It calls build twice: Compile's dry run, which checks each pattern call
// and counts each rank's events, then a fill that checks each event and
// appends it into the array, so no rank's trace grows by append. build
// must describe the same program on both calls; a fill that departs from
// its dry run's counts is an error. Compile compiles the same description
// without materializing the events.
func BuildProgram(app string, n int, build func(*Builder)) (*Program, error) {
	b := NewBuilder(app, n)
	if b.err != nil {
		return nil, b.err
	}
	b.c = newPatterns(app, n)
	build(b)
	counts := b.c.at
	b.c = nil
	if b.err != nil {
		return nil, b.err
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	events := make([]Event, total)
	for r, c := range counts {
		b.ranks[r], events = events[:0:c], events[c:]
	}
	build(b)
	if b.err != nil {
		return nil, b.err
	}
	for r, c := range counts {
		if got := len(b.ranks[r]); got != c {
			return nil, fmt.Errorf("mpi: building %s: rank %d has %d events, its dry run counted %d", app, r, got, c)
		}
	}
	return b.Build()
}

// Compute appends a compute segment executing share of block blockID on
// rank r.
func (b *Builder) Compute(r int, blockID uint64, share float64) *Builder {
	if b.err != nil {
		return b
	}
	if r < 0 || r >= b.n {
		b.fail("mpi: compute on rank %d of %d", r, b.n)
		return b
	}
	if b.c != nil {
		b.err = b.c.compute(r, r+1, blockID, share)
		return b
	}
	b.add(r, Event{Kind: Compute, BlockID: blockID, Share: share})
	return b
}

// ComputeAll appends the same compute segment on every rank.
func (b *Builder) ComputeAll(blockID uint64, share float64) *Builder {
	if b.err != nil {
		return b
	}
	if b.c != nil {
		b.err = b.c.compute(0, b.n, blockID, share)
		return b
	}
	for r := 0; r < b.n; r++ {
		b.Compute(r, blockID, share)
	}
	return b
}

// SendRecv appends a matched message: a Send on src and a Recv on dst.
func (b *Builder) SendRecv(src, dst, tag int, bytes uint64) *Builder {
	if b.err != nil {
		return b
	}
	n := b.n
	if src < 0 || src >= n || dst < 0 || dst >= n || src == dst {
		b.fail("mpi: bad message %d→%d in %d ranks", src, dst, n)
		return b
	}
	if b.c != nil {
		b.err = b.c.sendRecv(src, dst, bytes)
		return b
	}
	b.add(src, Event{Kind: Send, Peer: dst, Tag: tag, Bytes: bytes})
	b.add(dst, Event{Kind: Recv, Peer: src, Tag: tag, Bytes: bytes})
	return b
}

// Collective appends the same collective event on every rank.
func (b *Builder) Collective(kind EventKind, root int, bytes uint64) *Builder {
	if b.err != nil {
		return b
	}
	if !kind.IsCollective() {
		b.fail("mpi: %s is not a collective", kind)
		return b
	}
	if b.c != nil {
		b.err = b.c.collective(kind, root, bytes)
		return b
	}
	for r := 0; r < b.n; r++ {
		b.add(r, Event{Kind: kind, Peer: root, Bytes: bytes})
	}
	return b
}

// Allreduce appends an allreduce of the given payload on every rank.
func (b *Builder) Allreduce(bytes uint64) *Builder { return b.Collective(Allreduce, 0, bytes) }

// Grid3D describes a 3D cartesian decomposition of the rank space, used to
// generate nearest-neighbor (halo exchange) communication.
type Grid3D struct {
	Px, Py, Pz int
}

// NewGrid3D factors n ranks into a near-cubic 3D grid.
func NewGrid3D(n int) (Grid3D, error) {
	if n <= 0 {
		return Grid3D{}, fmt.Errorf("mpi: grid over %d ranks", n)
	}
	// Find the factorization px ≤ py ≤ pz minimizing pz-px with px·py·pz = n.
	best := Grid3D{1, 1, n}
	for px := 1; px*px*px <= n; px++ {
		if n%px != 0 {
			continue
		}
		rem := n / px
		for py := px; py*py <= rem; py++ {
			if rem%py != 0 {
				continue
			}
			pz := rem / py
			if pz-px < best.Pz-best.Px {
				best = Grid3D{px, py, pz}
			}
		}
	}
	return best, nil
}

// Size returns the total rank count of the grid.
func (g Grid3D) Size() int { return g.Px * g.Py * g.Pz }

// Coords returns the cartesian coordinates of rank r.
func (g Grid3D) Coords(r int) (x, y, z int) {
	x = r % g.Px
	y = (r / g.Px) % g.Py
	z = r / (g.Px * g.Py)
	return
}

// Rank returns the rank at the given coordinates.
func (g Grid3D) Rank(x, y, z int) int { return (z*g.Py+y)*g.Px + x }

// faceDirs are the six face-neighbor directions of a 3D grid, paired so
// that direction di^1 is the opposite of di.
var faceDirs = [6][3]int{{-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 1, 0}, {0, 0, -1}, {0, 0, 1}}

// faceNeighbors returns rank r's neighbor in each face direction, -1 where
// r lies on the grid boundary.
func (g Grid3D) faceNeighbors(r int) (peers [6]int) {
	x, y, z := g.Coords(r)
	for di, d := range faceDirs {
		nx, ny, nz := x+d[0], y+d[1], z+d[2]
		if nx < 0 || nx >= g.Px || ny < 0 || ny >= g.Py || nz < 0 || nz >= g.Pz {
			peers[di] = -1
			continue
		}
		peers[di] = g.Rank(nx, ny, nz)
	}
	return peers
}

// checkGrid records a sticky error when g does not cover the program.
func (b *Builder) checkGrid(g Grid3D) bool {
	if g.Size() != b.n {
		b.fail("mpi: grid %dx%dx%d covers %d ranks, program has %d",
			g.Px, g.Py, g.Pz, g.Size(), b.n)
		return false
	}
	return true
}

// HaloExchange3D appends a face-neighbor exchange over the grid: every rank
// sends faceBytes to each existing neighbor in ±x, ±y, ±z and receives the
// same. Tags encode the direction so message streams stay ordered.
func (b *Builder) HaloExchange3D(g Grid3D, faceBytes uint64, baseTag int) *Builder {
	if b.err != nil || !b.checkGrid(g) {
		return b
	}
	if b.c != nil {
		b.err = b.c.halo(g, faceBytes)
		return b
	}
	for r := 0; r < g.Size(); r++ {
		peers := g.faceNeighbors(r)
		for di, peer := range peers {
			if peer >= 0 {
				b.SendRecv(r, peer, baseTag+di, faceBytes)
			}
		}
	}
	return b
}

// HaloExchange3DNonblocking appends the same face-neighbor exchange as
// HaloExchange3D but with the canonical non-blocking structure: every rank
// first posts all its Irecvs, then all its Isends, then Waits on every
// request — the overlap-friendly pattern production stencil codes use.
func (b *Builder) HaloExchange3DNonblocking(g Grid3D, faceBytes uint64, baseTag int) *Builder {
	if b.err != nil || !b.checkGrid(g) {
		return b
	}
	if b.c != nil {
		b.err = b.c.haloNonblocking(g, faceBytes)
		return b
	}
	for r := 0; r < g.Size(); r++ {
		peers := g.faceNeighbors(r)
		req := 0
		// Post receives first (direction di of the neighbor's send is the
		// opposite direction index: di^1 flips the low bit of each pair).
		for di, peer := range peers {
			if peer >= 0 {
				b.add(r, Event{Kind: Irecv, Peer: peer, Tag: baseTag + (di ^ 1), Bytes: faceBytes, Request: req})
				req++
			}
		}
		// Then sends.
		for di, peer := range peers {
			if peer >= 0 {
				b.add(r, Event{Kind: Isend, Peer: peer, Tag: baseTag + di, Bytes: faceBytes, Request: req})
				req++
			}
		}
		for q := 0; q < req; q++ {
			b.add(r, Event{Kind: Wait, Request: q})
		}
	}
	return b
}

// Build returns the program, or the first error recorded while building.
// It does not re-validate: the builder's invariants make every program it
// returns valid, and consumers (psins.Compile, commx.Summarize) validate
// the programs they use.
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	return &Program{App: b.app, Ranks: b.ranks}, nil
}
