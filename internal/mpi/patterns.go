package mpi

import (
	"fmt"
	"math"
)

// Compile compiles the n-rank program that build describes through the
// Builder's patterns, without materializing its events. It calls build
// twice: a dry run that checks each pattern call and counts each rank's
// ops, sends and receives, then a pass that checks each call again and
// writes its ops for every rank, pairing each message as it writes the
// message's two ops. build must describe the same program on both calls;
// a second pass that departs from its dry run's counts is an error.
// Program.Compile compiles explicit programs.
func Compile(app string, n int, build func(*Builder)) (*Compiled, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mpi: builder needs ≥1 rank, got %d", n)
	}
	c := newPatterns(app, n)
	b := &Builder{n: n, e: c}
	build(b)
	if b.err != nil {
		return nil, b.err
	}
	if err := c.sizeUp(); err != nil {
		return nil, err
	}
	build(b)
	if b.err != nil {
		return nil, b.err
	}
	return c.finish()
}

// patterns is the Builder's emitter: it compiles the Builder's pattern
// calls a call at a time, in the two passes Compile drives. The dry run counts each rank's ops, sends and
// receives; the compiling pass writes the call's ops for every rank and
// counts the messages back down.
//
// Each pass checks each call once: its arguments in the Builder method,
// and here the first event the call would emit. That check stands for
// every event of the call. The events of one call share their payload,
// and differ only in rank, peer, tag, request and which point-to-point
// kind they are; Event.Validate checks every point-to-point kind alike,
// reads no tag or request and accepts every Wait, and the Builder method
// or the pattern keeps every peer in range and off its own rank.
//
// It pairs each message as it writes the message's send and receive.
// Every pattern call carries at most one message on a (src, dst, tag)
// channel and writes both of its ops, so after each call every channel has
// as many receives as sends, and the k-th send and the k-th receive of a
// channel come from the same call: emission pairing is MPI's
// channel-order pairing. No endpoints are bucketed, sorted or matched, and
// no request list is kept: an Irecv's Wait takes the Irecv's slot as both
// are written.
type patterns struct {
	out   *Compiled
	n     int
	sized bool
	// at[r] counts rank r's ops in the dry run; once sized it is where
	// rank r's next op goes.
	at []int
	// sends[r] and recvs[r] count the messages rank r sends and receives in
	// the dry run, and the compiling pass counts them back down, so a pass
	// that sends its messages between other ranks departs.
	sends, recvs []int
	computes     computeIndex
}

func newPatterns(app string, n int) *patterns {
	counts := make([]int, 3*n)
	return &patterns{
		out:   &Compiled{App: app, Off: make([]int, n+1)},
		n:     n,
		at:    counts[:n],
		sends: counts[n : 2*n],
		recvs: counts[2*n:],
	}
}

// sizeUp turns the dry run's op counts into rank offsets and allocates the
// ops.
func (c *patterns) sizeUp() error {
	off := c.out.Off
	for r, k := range c.at {
		off[r+1] = off[r] + k
		c.at[r] = off[r]
	}
	if total := off[c.n]; total > math.MaxInt32 {
		return fmt.Errorf("mpi: program has %d events over %d ranks, more than a compiled program indexes", total, c.n)
	}
	c.out.Ops = make([]Op, off[c.n])
	c.sized = true
	return nil
}

// departs reports a compiling pass whose ops on rank r, or whose messages
// to or from it, are not the ones its dry run counted.
func (c *patterns) departs(r int) error {
	return fmt.Errorf("mpi: building %s: rank %d departs from its dry run", c.out.App, r)
}

// finish checks that the compiling pass wrote what its dry run counted.
func (c *patterns) finish() (*Compiled, error) {
	for r := 0; r < c.n; r++ {
		if c.at[r] != c.out.Off[r+1] || c.sends[r] != 0 || c.recvs[r] != 0 {
			return nil, c.departs(r)
		}
	}
	if c.out.Slots > math.MaxInt32 {
		return nil, fmt.Errorf("mpi: program has %d message slots, more than a compiled program indexes", c.out.Slots)
	}
	return c.out, nil
}

// check validates e, the first event of a call, as rank r's next event,
// with the error text Program.Compile gives it.
func (c *patterns) check(r int, e Event) error {
	if err := e.Validate(r, c.n); err != nil {
		return eventError(r, c.at[r]-c.out.Off[r], err)
	}
	return nil
}

// put writes op as rank r's next op, reporting false when rank r already
// has the ops its dry run counted.
func (c *patterns) put(r int, op Op) bool {
	i := c.at[r]
	if i == c.out.Off[r+1] {
		return false
	}
	c.out.Ops[i] = op
	c.at[r] = i + 1
	return true
}

// span writes op on ranks lo to hi-1, or counts it there in the dry run.
func (c *patterns) span(lo, hi int, op Op) error {
	if !c.sized {
		for r := lo; r < hi; r++ {
			c.at[r]++
		}
		return nil
	}
	for r := lo; r < hi; r++ {
		if !c.put(r, op) {
			return c.departs(r)
		}
	}
	return nil
}

// compute writes a compute segment of share of block on ranks lo to hi-1.
func (c *patterns) compute(lo, hi int, block uint64, share float64) error {
	if err := c.check(lo, Event{Kind: Compute, BlockID: block, Share: share}); err != nil {
		return err
	}
	op := Op{Kind: Compute, Slot: -1}
	if c.sized {
		op.Arg = c.computes.intern(c.out, block, share)
	}
	return c.span(lo, hi, op)
}

// collective writes the collective on every rank.
func (c *patterns) collective(kind EventKind, root int, bytes uint64) error {
	if err := c.check(0, Event{Kind: kind, Peer: root, Bytes: bytes}); err != nil {
		return err
	}
	if c.sized {
		c.out.Collectives++
	}
	return c.span(0, c.n, Op{Kind: kind, Slot: -1, Arg: bytes})
}

// sendRecv writes one message from src to dst.
func (c *patterns) sendRecv(src, dst, _ int, bytes uint64) error {
	if err := c.check(src, Event{Kind: Send, Peer: dst, Bytes: bytes}); err != nil {
		return err
	}
	return c.message(src, dst, bytes)
}

// halo writes a blocking face-neighbor exchange over g: rank by rank, a
// message to each existing neighbor, in the order of HaloExchange3D's
// SendRecv calls.
func (c *patterns) halo(g Grid3D, bytes uint64, _ int) error {
	if err := c.checkHalo(g, Send, bytes); err != nil {
		return err
	}
	for w := (gridWalk{g: g}); w.r < c.n; w.next() {
		for _, peer := range w.neighbors() {
			if peer >= 0 {
				if err := c.message(w.r, peer, bytes); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// haloNonblocking writes HaloExchange3DNonblocking's exchange over g. Each
// rank with k neighbors gets k Irecvs, k Isends and 2k Waits, in that
// order. The call takes six slots per rank, one per direction, whether or
// not the rank has a neighbor there: the message that rank s sends in
// direction d has slot base+6s+d, which its receiver, posting its Irecv
// in direction d^1, computes from its own side.
func (c *patterns) haloNonblocking(g Grid3D, bytes uint64, _ int) error {
	if err := c.checkHalo(g, Irecv, bytes); err != nil {
		return err
	}
	base := c.out.Slots
	for w := (gridWalk{g: g}); w.r < c.n; w.next() {
		r, peers := w.r, w.neighbors()
		k := 0
		for _, peer := range peers {
			if peer >= 0 {
				k++
			}
		}
		if !c.sized {
			c.at[r] += 4 * k
			c.sends[r] += k
			c.recvs[r] += k
			continue
		}
		i := c.at[r]
		if i+4*k > c.out.Off[r+1] {
			return c.departs(r)
		}
		ops := c.out.Ops[i : i+4*k]
		j := 0
		for d, peer := range peers {
			if peer < 0 {
				continue
			}
			in := int32(base + 6*peer + (d ^ 1))
			ops[j] = Op{Kind: Irecv, Slot: in, Arg: bytes}
			ops[k+j] = Op{Kind: Isend, Slot: int32(base + 6*r + d), Arg: bytes}
			ops[2*k+j] = Op{Kind: Wait, Slot: in}
			ops[3*k+j] = Op{Kind: Wait, Slot: -1}
			j++
		}
		c.at[r] = i + 4*k
		c.sends[r] -= k
		c.recvs[r] -= k
		c.out.Messages += k
	}
	if c.sized {
		c.out.Slots += 6 * c.n
	}
	return nil
}

// checkHalo checks the first event of a halo exchange over g: rank 0's
// event of the given kind with its first neighbor, if it has one. Every
// other event of the exchange carries the same payload between neighbors.
func (c *patterns) checkHalo(g Grid3D, kind EventKind, bytes uint64) error {
	w := gridWalk{g: g}
	for _, peer := range w.neighbors() {
		if peer >= 0 {
			return c.check(0, Event{Kind: kind, Peer: peer, Bytes: bytes})
		}
	}
	return nil
}

// message writes a blocking message from src to dst in the next slot, or
// counts it in the dry run.
func (c *patterns) message(src, dst int, bytes uint64) error {
	if !c.sized {
		c.at[src]++
		c.at[dst]++
		c.sends[src]++
		c.recvs[dst]++
		return nil
	}
	slot := int32(c.out.Slots)
	if !c.put(src, Op{Kind: Send, Slot: slot, Arg: bytes}) {
		return c.departs(src)
	}
	if !c.put(dst, Op{Kind: Recv, Slot: slot, Arg: bytes}) {
		return c.departs(dst)
	}
	c.sends[src]--
	c.recvs[dst]--
	c.out.Slots++
	c.out.Messages++
	return nil
}
