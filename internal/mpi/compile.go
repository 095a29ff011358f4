package mpi

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Op is one event of a compiled program in 16 bytes: what a replay reads
// of the event, with its message resolved to a slot.
type Op struct {
	// Kind is the event's kind.
	Kind EventKind
	// Slot is the message slot a Send, Isend, Recv or Irecv shares with the
	// other side of its message, and that the Wait of an Irecv inherits; it
	// is -1 for every other op.
	Slot int32
	// Arg is the payload size of a communication op, or the index of a
	// compute op's (block, share) pair in Compiled.Computes.
	Arg uint64
}

// BlockShare is what a compute event executes: a share of a basic block.
type BlockShare struct {
	BlockID uint64
	Share   float64
}

// Compiled is a valid program compiled for replay: every rank's events as
// ops, rank-major in one array, with the point-to-point matching resolved
// into message slots.
//
// MPI matches the k-th receive posted on a (src, dst, tag) channel with the
// k-th message sent on it. In a program every channel has one sender, which
// issues its sends in program order, and one receiver, which posts its
// Recv/Irecv events in program order, so that pairing is fixed before any
// replay runs. Program.Compile lays the channels out one after another in
// (src, dst, tag) order, and the k-th send and the k-th receive of a
// channel share slot base(channel)+k. Compile gives each message the next
// slot as a Builder pattern writes its two ops, and a non-blocking halo
// exchange a block of six slots per rank, so its slots may leave gaps.
type Compiled struct {
	// App names the application the program represents.
	App string
	// Ops holds every rank's ops; Ops[Off[r]:Off[r+1]] is rank r's trace.
	Ops []Op
	Off []int
	// Computes holds the distinct (block, share) pairs of the compute ops.
	Computes []BlockShare
	// Messages is the number of point-to-point messages.
	Messages int
	// Slots bounds the message slots: every slot lies in [0, Slots), and
	// each message has its own. It is Messages when the slots leave no gap.
	Slots int
	// Collectives is the number of collectives each rank runs.
	Collectives int
}

// PayloadBytes sums the payloads of the program's point-to-point messages.
func (p *Compiled) PayloadBytes() uint64 {
	var sum uint64
	for _, op := range p.Ops {
		if op.Kind == Send || op.Kind == Isend {
			sum += op.Arg
		}
	}
	return sum
}

// Validate checks every event and the structural sanity of the program:
// matching send/recv multisets per (src,dst,tag) pair, every non-blocking
// request waited exactly once, and equal collective counts across ranks
// (necessary conditions for deadlock-free replay). It is Compile with the
// result dropped.
func (p *Program) Validate() error {
	_, err := p.Compile()
	return err
}

// Compile checks the program exactly as Validate does and compiles it. It
// streams the events rank by rank through the event compiler, so failures
// are reported in rank order: a rank's event and request errors, then the
// first channel with more or fewer receives than sends, then the first
// channel with only receives, then the collective counts.
func (p *Program) Compile() (*Compiled, error) {
	n := len(p.Ranks)
	if n == 0 {
		return nil, fmt.Errorf("mpi: program has no ranks")
	}
	c := newCompiler(p.App, n)
	for r, evs := range p.Ranks {
		for i := range evs {
			c.count(r, evs[i].Kind, evs[i].Peer)
		}
	}
	if err := c.sizeUp(); err != nil {
		return nil, err
	}
	for r, evs := range p.Ranks {
		for i := range evs {
			if err := c.event(r, &evs[i]); err != nil {
				return nil, err
			}
		}
		if err := c.unwaited(); err != nil {
			return nil, err
		}
	}
	return c.finish()
}

// endpoint is one side of a point-to-point message, kept in the bucket of
// its channel's source rank: a send (or Isend) to dst, or a receive (or
// Irecv) posted on dst.
type endpoint struct {
	dst int32
	ev  int32 // index of the op in Compiled.Ops
	tag int
}

// compareChannel orders the endpoints of one source rank by (dst, tag)
// channel.
func compareChannel(a, b endpoint) int {
	if c := cmp.Compare(a.dst, b.dst); c != 0 {
		return c
	}
	return cmp.Compare(a.tag, b.tag)
}

// request is an outstanding non-blocking operation.
type request struct {
	rank int32
	ev   int32 // the posting op
	id   int
}

// compiler turns a program's events into a Compiled program in two passes
// over the same events. The sizing pass (count) counts each rank's events
// and each source rank's sends and receives. The compiling pass (event)
// checks each event once, writes its op and records its endpoint in its
// source's bucket, its request pairing and its collective. finish then
// matches the channels bucket by bucket.
type compiler struct {
	out *Compiled
	n   int
	// sendOff[src] and recvOff[src] start the buckets of the sends and the
	// receives on channels from src, once sized; they count them before.
	sendOff, recvOff []int
	// at[r] is where rank r's next op goes; sendAt[src] and recvAt[src]
	// where the next endpoint of src's buckets goes.
	at, sendAt, recvAt []int
	sends, recvs       []endpoint
	// pending holds the outstanding requests. A rank keeps few outstanding
	// (a Builder halo exchange at most twelve), and Program.Compile
	// reports a rank's unwaited ones before it reads the next rank, so a
	// scan beats hashing.
	pending  []request
	colls    []int // collectives per rank
	computes computeIndex
}

func newCompiler(app string, n int) *compiler {
	return &compiler{
		out:     &Compiled{App: app, Off: make([]int, n+1)},
		n:       n,
		sendOff: make([]int, n+1),
		recvOff: make([]int, n+1),
	}
}

// count is the sizing pass's view of an event of rank r, of its kind and
// its peer, which are not checked yet.
func (c *compiler) count(r int, kind EventKind, peer int) {
	c.out.Off[r+1]++
	switch kind {
	case Send, Isend:
		c.sendOff[r+1]++
	case Recv, Irecv:
		if peer >= 0 && peer < c.n {
			c.recvOff[peer+1]++
		}
	}
}

// sizeUp turns the counts into offsets and allocates the compiling pass's
// arrays.
func (c *compiler) sizeUp() error {
	off := c.out.Off
	for r := 0; r < c.n; r++ {
		off[r+1] += off[r]
		c.sendOff[r+1] += c.sendOff[r]
		c.recvOff[r+1] += c.recvOff[r]
	}
	if total := off[c.n]; total > math.MaxInt32 || c.n > math.MaxInt32 {
		return fmt.Errorf("mpi: program has %d events over %d ranks, more than a compiled program indexes", total, c.n)
	}
	c.out.Ops = make([]Op, off[c.n])
	c.sends = make([]endpoint, c.sendOff[c.n])
	c.recvs = make([]endpoint, c.recvOff[c.n])
	at := make([]int, 4*c.n)
	c.at, c.sendAt, c.recvAt, c.colls = at[:c.n], at[c.n:2*c.n], at[2*c.n:3*c.n], at[3*c.n:]
	copy(c.at, off)
	copy(c.sendAt, c.sendOff)
	copy(c.recvAt, c.recvOff)
	return nil
}

// event is the compiling pass's view of event e of rank r.
func (c *compiler) event(r int, e *Event) error {
	i := c.at[r]
	if err := e.Validate(r, c.n); err != nil {
		return eventError(r, i-c.out.Off[r], err)
	}
	op := Op{Kind: e.Kind, Slot: -1, Arg: e.Bytes}
	switch e.Kind {
	case Compute:
		op.Arg = c.computes.intern(c.out, e.BlockID, e.Share)
	case Send, Isend:
		c.sends[c.sendAt[r]] = endpoint{dst: int32(e.Peer), ev: int32(i), tag: e.Tag}
		c.sendAt[r]++
	case Recv, Irecv:
		c.recvs[c.recvAt[e.Peer]] = endpoint{dst: int32(r), ev: int32(i), tag: e.Tag}
		c.recvAt[e.Peer]++
	case Wait:
		k := c.findRequest(r, e.Request)
		if k < 0 {
			return fmt.Errorf("mpi: rank %d waits on unposted request %d", r, e.Request)
		}
		if post := &c.out.Ops[c.pending[k].ev]; post.Kind == Irecv {
			// Until the channels are matched, an Irecv's slot names its
			// Wait, which then inherits the slot.
			post.Slot = int32(i)
		}
		last := len(c.pending) - 1
		c.pending[k] = c.pending[last]
		c.pending = c.pending[:last]
	default:
		c.colls[r]++ // Validate admits no other kind
	}
	if e.Kind == Isend || e.Kind == Irecv {
		if c.findRequest(r, e.Request) >= 0 {
			return fmt.Errorf("mpi: rank %d reuses outstanding request %d", r, e.Request)
		}
		c.pending = append(c.pending, request{rank: int32(r), ev: int32(i), id: e.Request})
	}
	c.out.Ops[i] = op
	c.at[r] = i + 1
	return nil
}

// computeIndex interns the (block, share) pairs of a program's compute
// ops into its Computes.
type computeIndex struct {
	// lastKey and last cache the pair interned last: an explicit program
	// repeats one rank's pairs on the next, in the same order. The zero key
	// is no valid pair, since a share must be positive.
	lastKey [2]uint64
	last    uint64
	index   map[[2]uint64]uint64
}

// intern returns the index of the pair (block, share) in p.Computes,
// appending it the first time.
func (x *computeIndex) intern(p *Compiled, block uint64, share float64) uint64 {
	key := [2]uint64{block, math.Float64bits(share)}
	if key == x.lastKey {
		return x.last
	}
	k, ok := x.index[key]
	if !ok {
		if x.index == nil {
			x.index = make(map[[2]uint64]uint64)
		}
		k = uint64(len(p.Computes))
		x.index[key] = k
		p.Computes = append(p.Computes, BlockShare{BlockID: block, Share: share})
	}
	x.lastKey, x.last = key, k
	return k
}

// findRequest returns the index of rank r's outstanding request id in
// pending, or -1.
func (c *compiler) findRequest(r, id int) int {
	for k, q := range c.pending {
		if q.id == id && int(q.rank) == r {
			return k
		}
	}
	return -1
}

// unwaited reports the lowest rank that still has requests outstanding.
func (c *compiler) unwaited() error {
	if len(c.pending) == 0 {
		return nil
	}
	r := c.pending[0].rank
	for _, q := range c.pending {
		r = min(r, q.rank)
	}
	k := 0
	for _, q := range c.pending {
		if q.rank == r {
			k++
		}
	}
	return fmt.Errorf("mpi: rank %d finishes with %d unwaited requests", r, k)
}

// finish matches the channels and checks the collective counts.
func (c *compiler) finish() (*Compiled, error) {
	p := c.out
	if err := c.match(); err != nil {
		return nil, err
	}
	for r := 1; r < c.n; r++ {
		if c.colls[r] != c.colls[0] {
			return nil, fmt.Errorf("mpi: rank %d has %d collectives, rank 0 has %d", r, c.colls[r], c.colls[0])
		}
	}
	p.Messages, p.Collectives = len(c.sends), c.colls[0]
	p.Slots = p.Messages
	return p, nil
}

// match walks each source rank's sends and receives together. Each bucket
// holds its endpoints in the order they were emitted, which on every
// channel is program order, so a stable sort by (dst, tag) lines up the
// bucket's channels with each channel's endpoints in program order. The
// walk checks that every channel carries as many receives as sends and
// gives the k-th send and the k-th receive of a channel whose sends start
// at position base of sends the slot base+k. A channel with sends is
// checked before any channel that only has receives is reported.
func (c *compiler) match() error {
	var orphan error
	for src := 0; src < c.n; src++ {
		base := c.sendOff[src]
		sends := c.sends[base:c.sendOff[src+1]]
		recvs := c.recvs[c.recvOff[src]:c.recvOff[src+1]]
		slices.SortStableFunc(sends, compareChannel)
		slices.SortStableFunc(recvs, compareChannel)
		i, j := 0, 0
		for i < len(sends) || j < len(recvs) {
			d := 1
			switch {
			case i == len(sends):
			case j == len(recvs):
				d = -1
			default:
				d = compareChannel(sends[i], recvs[j])
			}
			ns, nr := 0, 0
			if d <= 0 {
				for ns = 1; i+ns < len(sends) && compareChannel(sends[i+ns], sends[i]) == 0; ns++ {
				}
			}
			if d >= 0 {
				for nr = 1; j+nr < len(recvs) && compareChannel(recvs[j+nr], recvs[j]) == 0; nr++ {
				}
			}
			switch {
			case ns > 0 && nr != ns:
				return fmt.Errorf("mpi: %d sends but %d recvs on channel %d→%d tag %d",
					ns, nr, src, sends[i].dst, sends[i].tag)
			case ns == 0:
				if orphan == nil {
					orphan = fmt.Errorf("mpi: %d recvs with no sends on channel %d→%d tag %d",
						nr, src, recvs[j].dst, recvs[j].tag)
				}
			default:
				for k := 0; k < ns; k++ {
					slot := int32(base + i + k)
					c.out.Ops[sends[i+k].ev].Slot = slot
					recv := &c.out.Ops[recvs[j+k].ev]
					if recv.Kind == Irecv {
						c.out.Ops[recv.Slot].Slot = slot // its Wait
					}
					recv.Slot = slot
				}
			}
			i += ns
			j += nr
		}
	}
	return orphan
}
