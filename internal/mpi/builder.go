package mpi

import "fmt"

// Builder describes a program through communication patterns. Each method
// checks its arguments and hands the call to an emitter, which in
// production is the walk a replay drives (Walk) or the pattern compiler
// that Compile drives. Every pattern emits matched sends and receives,
// waited requests and collectives on all ranks, so a program a Builder
// describes without error always passes Program.Validate. The first error
// sticks: later calls do nothing.
type Builder struct {
	n   int
	err error
	e   emitter
}

// emitter takes a Builder's pattern calls once the Builder has checked
// their arguments. It checks the events a call makes and returns the
// error that sticks. The walk (walker) and the pattern compiler (patterns)
// are its implementations outside tests; both ignore the tags, since each
// pairs a message's send and receive as it hands them over or writes them
// (DESIGN §18). Tests substitute an emitter that appends every event, as
// the reference of both.
type emitter interface {
	compute(lo, hi int, block uint64, share float64) error
	collective(kind EventKind, root int, bytes uint64) error
	sendRecv(src, dst, tag int, bytes uint64) error
	halo(g Grid3D, bytes uint64, baseTag int) error
	haloNonblocking(g Grid3D, bytes uint64, baseTag int) error
}

// Compute adds a compute segment executing share of block blockID on rank
// r.
func (b *Builder) Compute(r int, blockID uint64, share float64) *Builder {
	if b.err != nil {
		return b
	}
	if r < 0 || r >= b.n {
		b.err = fmt.Errorf("mpi: compute on rank %d of %d", r, b.n)
		return b
	}
	b.err = b.e.compute(r, r+1, blockID, share)
	return b
}

// ComputeAll adds the same compute segment on every rank.
func (b *Builder) ComputeAll(blockID uint64, share float64) *Builder {
	if b.err == nil {
		b.err = b.e.compute(0, b.n, blockID, share)
	}
	return b
}

// SendRecv adds a matched message: a Send on src and a Recv on dst.
func (b *Builder) SendRecv(src, dst, tag int, bytes uint64) *Builder {
	if b.err != nil {
		return b
	}
	if n := b.n; src < 0 || src >= n || dst < 0 || dst >= n || src == dst {
		b.err = fmt.Errorf("mpi: bad message %d→%d in %d ranks", src, dst, n)
		return b
	}
	b.err = b.e.sendRecv(src, dst, tag, bytes)
	return b
}

// Collective adds the same collective event on every rank.
func (b *Builder) Collective(kind EventKind, root int, bytes uint64) *Builder {
	if b.err != nil {
		return b
	}
	if !kind.IsCollective() {
		b.err = fmt.Errorf("mpi: %s is not a collective", kind)
		return b
	}
	b.err = b.e.collective(kind, root, bytes)
	return b
}

// Allreduce adds an allreduce of the given payload on every rank.
func (b *Builder) Allreduce(bytes uint64) *Builder { return b.Collective(Allreduce, 0, bytes) }

// Grid3D describes a 3D cartesian decomposition of the rank space, used to
// generate nearest-neighbor (halo exchange) communication. Ranks run
// through the grid x fastest, then y, then z.
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

// gridWalk visits a grid's ranks in rank order and keeps the coordinates
// of the rank it is at, so that finding a rank's neighbors takes no
// division.
type gridWalk struct {
	g          Grid3D
	r, x, y, z int
}

// next moves the walk to the next rank.
func (w *gridWalk) next() {
	w.r++
	if w.x++; w.x < w.g.Px {
		return
	}
	w.x = 0
	if w.y++; w.y < w.g.Py {
		return
	}
	w.y = 0
	w.z++
}

// neighbors returns the current rank's neighbor in each face direction,
// -1 where the rank lies on the grid boundary: r∓1, r∓Px and r∓Px·Py, in
// that order, so that direction d^1 is the opposite of d.
func (w *gridWalk) neighbors() [6]int {
	g, r, plane := w.g, w.r, w.g.Px*w.g.Py
	peers := [6]int{r - 1, r + 1, r - g.Px, r + g.Px, r - plane, r + plane}
	if w.x == 0 {
		peers[0] = -1
	}
	if w.x == g.Px-1 {
		peers[1] = -1
	}
	if w.y == 0 {
		peers[2] = -1
	}
	if w.y == g.Py-1 {
		peers[3] = -1
	}
	if w.z == 0 {
		peers[4] = -1
	}
	if w.z == g.Pz-1 {
		peers[5] = -1
	}
	return peers
}

// checkGrid records a sticky error when g does not cover the program.
func (b *Builder) checkGrid(g Grid3D) bool {
	if g.Size() != b.n {
		b.err = fmt.Errorf("mpi: grid %dx%dx%d covers %d ranks, program has %d",
			g.Px, g.Py, g.Pz, g.Size(), b.n)
		return false
	}
	return true
}

// HaloExchange3D adds a face-neighbor exchange over the grid: every rank,
// in rank order, sends faceBytes to each existing neighbor in ±x, ±y, ±z
// as a SendRecv, and receives the same. The tag of a message is baseTag
// plus its direction.
func (b *Builder) HaloExchange3D(g Grid3D, faceBytes uint64, baseTag int) *Builder {
	if b.err == nil && b.checkGrid(g) {
		b.err = b.e.halo(g, faceBytes, baseTag)
	}
	return b
}

// HaloExchange3DNonblocking adds the same face-neighbor exchange as
// HaloExchange3D but with the canonical non-blocking structure: every rank
// first posts all its Irecvs, then all its Isends, then Waits on every
// request — the overlap-friendly pattern production stencil codes use.
func (b *Builder) HaloExchange3DNonblocking(g Grid3D, faceBytes uint64, baseTag int) *Builder {
	if b.err == nil && b.checkGrid(g) {
		b.err = b.e.haloNonblocking(g, faceBytes, baseTag)
	}
	return b
}
