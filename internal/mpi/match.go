package mpi

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Matching is the static point-to-point matching of a valid program. MPI
// matches the k-th receive posted on a (src, dst, tag) channel with the
// k-th message sent on it; in a program every channel has one sender, which
// issues its sends in program order, and one receiver, which posts its
// Recv/Irecv events in program order, so that pairing is fixed before any
// replay runs. Match resolves it into dense message slots: the channels are
// laid out one after another in (src, dst, tag) order, and the k-th send and
// the k-th receive of a channel share slot base(channel)+k.
type Matching struct {
	// Slot holds one entry per event in rank-major order (rank 0's events,
	// then rank 1's, ...). Send, Isend, Recv and Irecv events hold their
	// message slot in [0, Messages); a Wait holds its Irecv's slot, or -1
	// when it completes an Isend; every other event holds -1.
	Slot []int32
	// Messages is the number of point-to-point messages, one per slot.
	Messages int
	// Collectives is the number of collectives each rank runs.
	Collectives int
}

// endpoint is one side of a point-to-point message: a send (or Isend) on
// rank src, or a receive (or Irecv) on rank dst.
type endpoint struct {
	src, dst int32
	tag      int
	ev       int32 // rank-major index of the event
}

// compareChannel orders endpoints by (src, dst, tag) channel.
func compareChannel(a, b endpoint) int {
	if c := cmp.Compare(a.src, b.src); c != 0 {
		return c
	}
	if c := cmp.Compare(a.dst, b.dst); c != 0 {
		return c
	}
	return cmp.Compare(a.tag, b.tag)
}

// request is an outstanding non-blocking operation of the rank being
// scanned.
type request struct {
	id   int
	ev   int32 // rank-major index of the posting event
	recv bool  // an Irecv (its Wait inherits the receive's slot)
}

// findRequest returns the index of request id among the outstanding ones,
// or -1. Ranks keep few requests outstanding (a Builder halo exchange at
// most twelve), so a scan beats hashing; a rank with k outstanding pays
// O(k) per posting and Wait.
func findRequest(pending []request, id int) int {
	for k := range pending {
		if pending[k].id == id {
			return k
		}
	}
	return -1
}

// Validate checks every event and the structural sanity of the program:
// matching send/recv multisets per (src,dst,tag) pair, every non-blocking
// request waited exactly once, and equal collective counts across ranks
// (necessary conditions for deadlock-free replay).
func (p *Program) Validate() error {
	_, err := p.Match()
	return err
}

// Match validates the program exactly as Validate does and, for a valid
// program, returns its point-to-point matching. After counting sends and
// receives to size its arrays, it makes one validating pass over the
// events, sorts each rank's few sends and receives by channel and merges
// the two sides; no map is involved.
func (p *Program) Match() (*Matching, error) {
	n := len(p.Ranks)
	if n == 0 {
		return nil, fmt.Errorf("mpi: program has no ranks")
	}
	total, nsend, nrecv := 0, 0, 0
	for _, evs := range p.Ranks {
		total += len(evs)
		for i := range evs {
			switch evs[i].Kind {
			case Send, Isend:
				nsend++
			case Recv, Irecv:
				nrecv++
			}
		}
	}
	if total > math.MaxInt32 || n > math.MaxInt32 {
		return nil, fmt.Errorf("mpi: program has %d events over %d ranks, more than a matching indexes", total, n)
	}
	m := &Matching{Slot: make([]int32, total)}
	var (
		sends     = make([]endpoint, 0, nsend)
		recvs     = make([]endpoint, 0, nrecv)
		pending   []request
		collCount int  // rank 0's collectives
		collRank  = -1 // first rank whose collective count differs
		collBad   int  // that rank's count
	)
	recvsFrom := make([]int32, n) // receives per source rank, then bucket offsets
	ev := int32(0)
	for r, evs := range p.Ranks {
		firstSend, firstRecv := len(sends), len(recvs)
		colls := 0
		pending = pending[:0]
		for i := range evs {
			e := &evs[i]
			if err := e.Validate(r, n); err != nil {
				return nil, fmt.Errorf("mpi: rank %d event %d: %w", r, i, err)
			}
			m.Slot[ev] = -1
			switch e.Kind {
			case Send, Isend:
				sends = append(sends, endpoint{src: int32(r), dst: int32(e.Peer), tag: e.Tag, ev: ev})
			case Recv, Irecv:
				recvs = append(recvs, endpoint{src: int32(e.Peer), dst: int32(r), tag: e.Tag, ev: ev})
				recvsFrom[e.Peer]++
			case Wait:
				k := findRequest(pending, e.Request)
				if k < 0 {
					return nil, fmt.Errorf("mpi: rank %d waits on unposted request %d", r, e.Request)
				}
				if pending[k].recv {
					// Resolved to the Irecv's slot once the channels are
					// matched: -2-post encodes "same slot as event post".
					m.Slot[ev] = -2 - pending[k].ev
				}
				pending[k] = pending[len(pending)-1]
				pending = pending[:len(pending)-1]
			default:
				if e.Kind.IsCollective() {
					colls++
				}
			}
			if e.Kind == Isend || e.Kind == Irecv {
				if findRequest(pending, e.Request) >= 0 {
					return nil, fmt.Errorf("mpi: rank %d reuses outstanding request %d", r, e.Request)
				}
				pending = append(pending, request{id: e.Request, ev: ev, recv: e.Kind == Irecv})
			}
			ev++
		}
		if len(pending) > 0 {
			return nil, fmt.Errorf("mpi: rank %d finishes with %d unwaited requests", r, len(pending))
		}
		if r == 0 {
			collCount = colls
		} else if colls != collCount && collRank < 0 {
			collRank, collBad = r, colls
		}
		// The rank's sends all have src = r and its receives dst = r, so
		// sorting each run orders it by channel; the stable sort keeps each
		// channel's run in program order.
		slices.SortStableFunc(sends[firstSend:], compareChannel)
		slices.SortStableFunc(recvs[firstRecv:], compareChannel)
	}
	// sends is in (src, dst, tag, program) order; recvs in (dst, src, tag,
	// program) order. A stable bucket pass by source brings the receives
	// into the sends' order.
	var off int32
	for src := range recvsFrom {
		c := recvsFrom[src]
		recvsFrom[src] = off
		off += c
	}
	byChannel := make([]endpoint, len(recvs))
	for _, e := range recvs {
		byChannel[recvsFrom[e.src]] = e
		recvsFrom[e.src]++
	}
	if err := m.assign(sends, byChannel); err != nil {
		return nil, err
	}
	if collRank > 0 {
		return nil, fmt.Errorf("mpi: rank %d has %d collectives, rank 0 has %d",
			collRank, collBad, collCount)
	}
	m.Messages, m.Collectives = len(sends), collCount
	for i, s := range m.Slot {
		if s < -1 {
			m.Slot[i] = m.Slot[-2-s]
		}
	}
	return m, nil
}

// assign walks the channel-ordered sends and receives together, checks that
// every channel carries as many receives as sends, and gives the k-th send
// and the k-th receive of a channel whose sends start at position base of
// sends the slot base+k. A channel with sends is checked before any channel
// that only has receives is reported.
func (m *Matching) assign(sends, recvs []endpoint) error {
	var orphan error
	i, j := 0, 0
	for i < len(sends) || j < len(recvs) {
		c := 1
		switch {
		case i == len(sends):
		case j == len(recvs):
			c = -1
		default:
			c = compareChannel(sends[i], recvs[j])
		}
		ns, nr := 0, 0
		if c <= 0 {
			for ns = 1; i+ns < len(sends) && compareChannel(sends[i+ns], sends[i]) == 0; ns++ {
			}
		}
		if c >= 0 {
			for nr = 1; j+nr < len(recvs) && compareChannel(recvs[j+nr], recvs[j]) == 0; nr++ {
			}
		}
		switch {
		case ns > 0 && nr != ns:
			k := sends[i]
			return fmt.Errorf("mpi: %d sends but %d recvs on channel %d→%d tag %d",
				ns, nr, k.src, k.dst, k.tag)
		case ns == 0:
			if orphan == nil {
				k := recvs[j]
				orphan = fmt.Errorf("mpi: %d recvs with no sends on channel %d→%d tag %d",
					nr, k.src, k.dst, k.tag)
			}
		default:
			for k := 0; k < ns; k++ {
				m.Slot[sends[i+k].ev] = int32(i + k)
				m.Slot[recvs[j+k].ev] = int32(i + k)
			}
		}
		i += ns
		j += nr
	}
	return orphan
}
