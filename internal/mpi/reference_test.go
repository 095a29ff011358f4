package mpi

import "fmt"

// appender is the reference emitter: it appends every event a Builder's
// pattern calls describe to its rank's trace, checking each as
// Program.Validate does, and finds each rank's face neighbors from its
// coordinates. The tests hold the pattern compiler, which checks one event
// per call, pairs messages as it writes them and walks grids in rank
// order, to the program it builds.
type appender struct {
	n     int
	ranks [][]Event
}

// appendProgram builds the n-rank program that build describes through
// the appending emitter.
func appendProgram(app string, n int, build func(*Builder)) (*Program, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mpi: builder needs ≥1 rank, got %d", n)
	}
	a := &appender{n: n, ranks: make([][]Event, n)}
	b := &Builder{n: n, e: a}
	build(b)
	if b.err != nil {
		return nil, b.err
	}
	return &Program{App: app, Ranks: a.ranks}, nil
}

// add appends e to rank r's trace after checking it as Program.Validate
// does.
func (a *appender) add(r int, e Event) error {
	if err := e.Validate(r, a.n); err != nil {
		return eventError(r, len(a.ranks[r]), err)
	}
	a.ranks[r] = append(a.ranks[r], e)
	return nil
}

func (a *appender) compute(lo, hi int, block uint64, share float64) error {
	for r := lo; r < hi; r++ {
		if err := a.add(r, Event{Kind: Compute, BlockID: block, Share: share}); err != nil {
			return err
		}
	}
	return nil
}

func (a *appender) collective(kind EventKind, root int, bytes uint64) error {
	for r := 0; r < a.n; r++ {
		if err := a.add(r, Event{Kind: kind, Peer: root, Bytes: bytes}); err != nil {
			return err
		}
	}
	return nil
}

func (a *appender) sendRecv(src, dst, tag int, bytes uint64) error {
	if err := a.add(src, Event{Kind: Send, Peer: dst, Tag: tag, Bytes: bytes}); err != nil {
		return err
	}
	return a.add(dst, Event{Kind: Recv, Peer: src, Tag: tag, Bytes: bytes})
}

func (a *appender) halo(g Grid3D, bytes uint64, baseTag int) error {
	for r := 0; r < g.Size(); r++ {
		for di, peer := range referenceNeighbors(g, r) {
			if peer >= 0 {
				if err := a.sendRecv(r, peer, baseTag+di, bytes); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (a *appender) haloNonblocking(g Grid3D, bytes uint64, baseTag int) error {
	for r := 0; r < g.Size(); r++ {
		peers := referenceNeighbors(g, r)
		req := 0
		// Post receives first (direction di of the neighbor's send is the
		// opposite direction index: di^1 flips the low bit of each pair).
		for di, peer := range peers {
			if peer >= 0 {
				if err := a.add(r, Event{Kind: Irecv, Peer: peer, Tag: baseTag + (di ^ 1), Bytes: bytes, Request: req}); err != nil {
					return err
				}
				req++
			}
		}
		// Then sends.
		for di, peer := range peers {
			if peer >= 0 {
				if err := a.add(r, Event{Kind: Isend, Peer: peer, Tag: baseTag + di, Bytes: bytes, Request: req}); err != nil {
					return err
				}
				req++
			}
		}
		for q := 0; q < req; q++ {
			if err := a.add(r, Event{Kind: Wait, Request: q}); err != nil {
				return err
			}
		}
	}
	return nil
}

// coords returns the cartesian coordinates of rank r of g.
func coords(g Grid3D, r int) (x, y, z int) {
	return r % g.Px, (r / g.Px) % g.Py, r / (g.Px * g.Py)
}

// rankAt returns the rank of g at the given coordinates.
func rankAt(g Grid3D, x, y, z int) int { return (z*g.Py+y)*g.Px + x }

// faceDirs are the six face-neighbor directions of a 3D grid, paired so
// that direction di^1 is the opposite of di.
var faceDirs = [6][3]int{{-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 1, 0}, {0, 0, -1}, {0, 0, 1}}

// referenceNeighbors returns rank r's neighbor in each face direction,
// found from its coordinates, -1 where r lies on the grid boundary.
func referenceNeighbors(g Grid3D, r int) (peers [6]int) {
	x, y, z := coords(g, r)
	for di, d := range faceDirs {
		nx, ny, nz := x+d[0], y+d[1], z+d[2]
		if nx < 0 || nx >= g.Px || ny < 0 || ny >= g.Py || nz < 0 || nz >= g.Pz {
			peers[di] = -1
			continue
		}
		peers[di] = rankAt(g, nx, ny, nz)
	}
	return peers
}
