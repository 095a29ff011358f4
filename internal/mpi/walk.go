package mpi

import "fmt"

// Visitor receives the events of a Builder description from Walk. M is
// what a receive needs from its send: a replay's message arrival time.
type Visitor[M any] interface {
	// Compute executes share of block on ranks lo to hi-1, as each rank's
	// next event.
	Compute(lo, hi int, block uint64, share float64) error
	// Collective runs the collective on every rank, as each rank's next
	// event.
	Collective(kind EventKind, bytes uint64) error
	// Send posts a Send or Isend of bytes as rank r's next event and
	// returns what the message's receive needs.
	Send(r int, kind EventKind, bytes uint64) M
	// Receive completes, as rank r's next event, a Recv or the Wait of an
	// Irecv on the message whose Send returned m.
	Receive(r int, kind EventKind, m M)
}

// Walk drives the n-rank description build once and hands its events to
// v, in an order where every rank's events come in program order and
// every receive comes after its send. It returns the number of events in
// the program, counting those that take no part in a replay (an Irecv's
// post, an Isend's Wait), which v does not see.
//
// Compute and collective calls pass through as the description makes
// them. SendRecv and HaloExchange3D hand over each message's Send and then
// its Receive, in the order the pattern compiler writes them: rank order,
// then direction order. By induction over those messages every rank sees
// its events in program order, as DESIGN §18 shows.
// HaloExchange3DNonblocking hands over every rank's Isends in direction
// order, then every rank's receive Waits, keeping the Isends' Ms in a
// scratch array of six per rank.
//
// Walk checks each call as Compile does: its arguments in the Builder
// method, then its first event through Event.Validate. It returns the
// first error of the walk, which is Compile's error for a description
// that Compile rejects, or the first error v returns.
func Walk[M any](n int, build func(*Builder), v Visitor[M]) (events int, err error) {
	if n <= 0 {
		return 0, fmt.Errorf("mpi: builder needs ≥1 rank, got %d", n)
	}
	w := &walker[M]{n: n, v: v}
	b := &Builder{n: n, e: w}
	build(b)
	if b.err == nil {
		return w.events, nil
	}
	if b.err == w.invalid {
		// The index in Compile's text of the rejected event counts its
		// rank's events so far, which the walk does not keep. Compile's
		// dry run rejects the same call and names the event.
		if _, err := Compile("", n, build); err != nil {
			return 0, err
		}
	}
	return 0, b.err
}

// walker is the Builder's emitter for Walk.
type walker[M any] struct {
	n      int
	v      Visitor[M]
	events int
	// invalid is the error of the event that Event.Validate rejected.
	invalid error
	// sent[6r+d] holds what the non-blocking halo exchange's Isend from
	// rank r in direction d returned.
	sent []M
}

// check validates e, the first event of a call, on rank r.
func (w *walker[M]) check(r int, e Event) error {
	if err := e.Validate(r, w.n); err != nil {
		w.invalid = err
		return err
	}
	return nil
}

func (w *walker[M]) compute(lo, hi int, block uint64, share float64) error {
	if err := w.check(lo, Event{Kind: Compute, BlockID: block, Share: share}); err != nil {
		return err
	}
	w.events += hi - lo
	return w.v.Compute(lo, hi, block, share)
}

func (w *walker[M]) collective(kind EventKind, root int, bytes uint64) error {
	if err := w.check(0, Event{Kind: kind, Peer: root, Bytes: bytes}); err != nil {
		return err
	}
	w.events += w.n
	return w.v.Collective(kind, bytes)
}

func (w *walker[M]) sendRecv(src, dst, _ int, bytes uint64) error {
	if err := w.check(src, Event{Kind: Send, Peer: dst, Bytes: bytes}); err != nil {
		return err
	}
	w.message(src, dst, bytes)
	return nil
}

// message hands over a blocking message from src to dst.
func (w *walker[M]) message(src, dst int, bytes uint64) {
	w.v.Receive(dst, Recv, w.v.Send(src, Send, bytes))
	w.events += 2
}

func (w *walker[M]) halo(g Grid3D, bytes uint64, _ int) error {
	if err := checkHalo(g, Send, bytes, w.check); err != nil {
		return err
	}
	for gw := (gridWalk{g: g}); gw.r < w.n; gw.next() {
		for _, peer := range gw.neighbors() {
			if peer >= 0 {
				w.message(gw.r, peer, bytes)
			}
		}
	}
	return nil
}

// haloNonblocking hands over the Isends of every rank, then the Waits
// that complete its Irecvs. A rank with k neighbors has 4k events: k
// Irecvs, k Isends and 2k Waits. The message rank s sends in direction d
// is the one its neighbor receives in direction d^1.
func (w *walker[M]) haloNonblocking(g Grid3D, bytes uint64, _ int) error {
	if err := checkHalo(g, Irecv, bytes, w.check); err != nil {
		return err
	}
	if w.sent == nil {
		w.sent = make([]M, 6*w.n)
	}
	for gw := (gridWalk{g: g}); gw.r < w.n; gw.next() {
		for d, peer := range gw.neighbors() {
			if peer >= 0 {
				w.sent[6*gw.r+d] = w.v.Send(gw.r, Isend, bytes)
				w.events += 4
			}
		}
	}
	for gw := (gridWalk{g: g}); gw.r < w.n; gw.next() {
		for d, peer := range gw.neighbors() {
			if peer >= 0 {
				w.v.Receive(gw.r, Wait, w.sent[6*peer+(d^1)])
			}
		}
	}
	return nil
}

// checkHalo checks the first event of a halo exchange over g with check:
// rank 0's event of the given kind with its first neighbor, if it has one.
// Every other event of the exchange carries the same payload between
// neighbors, so checking this one checks the call.
func checkHalo(g Grid3D, kind EventKind, bytes uint64, check func(r int, e Event) error) error {
	w := gridWalk{g: g}
	for _, peer := range w.neighbors() {
		if peer >= 0 {
			return check(0, Event{Kind: kind, Peer: peer, Bytes: bytes})
		}
	}
	return nil
}
