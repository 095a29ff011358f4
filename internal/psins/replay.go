package psins

import (
	"context"
	"fmt"
	"strconv"

	"tracex/internal/mpi"
	"tracex/internal/obs"
)

// ComputeCost converts one compute event into seconds: the time rank spends
// executing the given share of basic block blockID. Implementations come
// from either the convolution (predicted per-block times from a signature
// and machine profile) or the detailed execution simulator (cycle-accurate
// per-block times), making the replay engine common to both paths.
type ComputeCost func(rank int, blockID uint64, share float64) (float64, error)

// Result summarizes a replay: the predicted application runtime and the
// per-rank decomposition into computation and communication time.
type Result struct {
	// Runtime is the wall-clock prediction: the latest rank finish time.
	Runtime float64
	// RankEnd[r] is rank r's finish time.
	RankEnd []float64
	// ComputeTime[r] is the total time rank r spent in compute segments.
	ComputeTime []float64
	// CommTime[r] is the total time rank r spent in communication
	// (overheads plus blocking waits).
	CommTime []float64
	// Messages is the number of point-to-point messages delivered.
	Messages int
}

// Segment is one interval of a rank's replayed timeline.
type Segment struct {
	// Rank is the MPI rank the segment belongs to.
	Rank int `json:"rank"`
	// Kind is the event kind ("compute", "recv", "allreduce", ...).
	Kind string `json:"kind"`
	// Start and End bound the segment in seconds of virtual time.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// BlockID is set for compute segments.
	BlockID uint64 `json:"block_id,omitempty"`
}

// Timeline collects the per-rank segments of a replay for visualization
// and prediction debugging. Zero-length segments (instantaneous events) are
// omitted. Each rank's segments appear in time order; the segments of
// different ranks interleave in an unspecified order.
type Timeline struct {
	Segments []Segment `json:"segments"`
}

// add appends a non-empty segment.
func (tl *Timeline) add(rank int, kind mpi.EventKind, start, end float64, blockID uint64) {
	if tl == nil || end <= start {
		return
	}
	tl.Segments = append(tl.Segments, Segment{
		Rank: rank, Kind: kind.String(), Start: start, End: end, BlockID: blockID,
	})
}

// ctxCheckMask throttles the cancellation polling of a replay's sends: it
// consults its context every ctxCheckMask+1 messages sent, besides at
// every compute and collective call.
const ctxCheckMask = 1<<12 - 1

// Replay performs a discrete-event replay of the n-rank program that build
// describes, in one pass over the description (mpi.Walk) that prices each
// event as it arrives: per-rank virtual clocks advance through each rank's
// events, a blocking receive or the Wait of an Irecv completes at its
// message's arrival under the network model, and a collective ends
// CollectiveCost after the last rank arrives. The cost callback supplies
// compute-segment durations. A rank's events come in program order and
// each receive after its send, so a rank's clock, its NIC queue and every
// collective's latest arrival are the ones a replay in any other such
// order computes. Replay checks ctx at every compute and collective call
// and every 4096 messages, and returns ctx.Err() once it is cancelled.
// When tl is non-nil every rank's compute and communication intervals are
// appended to it (memory grows with the event count — use judiciously at
// large rank counts). Replay returns the description's error if mpi.Walk
// rejects it.
func Replay(ctx context.Context, n int, build func(*mpi.Builder), net Network, cost ComputeCost, tl *Timeline) (*Result, error) {
	if cost == nil {
		return nil, fmt.Errorf("psins: nil compute cost")
	}
	if n <= 0 {
		return nil, fmt.Errorf("psins: replay over %d ranks", n)
	}
	// The label is built without fmt, whose printer pool a garbage
	// collection may empty, so a replay's allocations do not depend on
	// when the collector runs.
	var buf [32]byte
	label := string(append(strconv.AppendInt(buf[:0], int64(n), 10), " ranks"...))
	sp := obs.From(ctx).StartSpan("psins.replay", label)
	defer sp.End()
	res := &Result{
		RankEnd:     make([]float64, n),
		ComputeTime: make([]float64, n),
		CommTime:    make([]float64, n),
	}
	p := &replayer{ctx: ctx, net: net, cost: cost, tl: tl, res: res,
		clock: res.RankEnd, nicFree: make([]float64, n)}
	events, err := mpi.Walk[float64](n, build, p)
	if err == nil {
		err = p.err
	}
	if err != nil {
		return nil, err
	}
	for _, t := range res.RankEnd {
		if t > res.Runtime {
			res.Runtime = t
		}
	}
	// One batched metrics update per replay: events executed, messages
	// delivered, and the virtual compute vs communication-wait split summed
	// across ranks.
	var compute, comm float64
	for r := 0; r < n; r++ {
		compute += res.ComputeTime[r]
		comm += res.CommTime[r]
	}
	m := obs.From(ctx)
	m.Counter("psins.replays").Inc()
	m.Counter("psins.events").Add(uint64(events))
	m.Counter("psins.messages").Add(uint64(res.Messages))
	m.Gauge("psins.compute_seconds").Add(compute)
	m.Gauge("psins.comm_seconds").Add(comm)
	return res, nil
}

// replayer is Replay's mpi.Visitor. A message's M is its arrival time at
// its receiver.
type replayer struct {
	ctx  context.Context
	net  Network
	cost ComputeCost
	tl   *Timeline
	res  *Result
	// clock[r] is rank r's virtual time, kept in res.RankEnd.
	clock []float64
	// nicFree[r] is when rank r's NIC finishes injecting its previous
	// message: consecutive sends from one rank serialize at the NIC even
	// though the CPU only pays the per-message overhead.
	nicFree []float64
	// err is the context's error, once a Send has seen it.
	err error
}

// poll returns the context's error, if a Send saw it or it is cancelled
// now.
func (p *replayer) poll() error {
	if p.err != nil {
		return p.err
	}
	return p.ctx.Err()
}

// Compute advances ranks lo to hi-1 by their cost of share of block.
func (p *replayer) Compute(lo, hi int, block uint64, share float64) error {
	if err := p.poll(); err != nil {
		return err
	}
	for r := lo; r < hi; r++ {
		dt, err := p.cost(r, block, share)
		if err != nil {
			return fmt.Errorf("psins: rank %d block %d: %w", r, block, err)
		}
		if dt < 0 {
			return fmt.Errorf("psins: negative compute cost %g for block %d", dt, block)
		}
		p.tl.add(r, mpi.Compute, p.clock[r], p.clock[r]+dt, block)
		p.clock[r] += dt
		p.res.ComputeTime[r] += dt
	}
	return nil
}

// Collective synchronizes every rank: each leaves at the latest arrival
// plus the collective's cost.
func (p *replayer) Collective(kind mpi.EventKind, bytes uint64) error {
	if err := p.poll(); err != nil {
		return err
	}
	c, err := p.net.CollectiveCost(kind, len(p.clock), bytes)
	if err != nil {
		return err
	}
	var last float64
	for _, t := range p.clock {
		if t > last {
			last = t
		}
	}
	end := last + c
	for r, t := range p.clock {
		p.tl.add(r, kind, t, end, 0)
		p.res.CommTime[r] += end - t
		p.clock[r] = end
	}
	return nil
}

// Send is eager: the CPU pays the injection overhead at post time, and an
// Isend's Wait is then free. The payload leaves once rank r's NIC is free.
func (p *replayer) Send(r int, kind mpi.EventKind, bytes uint64) float64 {
	if p.res.Messages++; p.res.Messages&ctxCheckMask == 0 && p.err == nil {
		p.err = p.ctx.Err()
	}
	now := p.clock[r]
	o := p.net.SendOverhead(bytes)
	start := now + o
	if p.nicFree[r] > start {
		start = p.nicFree[r]
	}
	ser := p.net.SerializationTime(bytes)
	p.nicFree[r] = start + ser
	p.tl.add(r, kind, now, now+o, 0)
	p.clock[r] = now + o
	p.res.CommTime[r] += o
	return start + ser + p.net.Latency()
}

// Receive completes a Recv, or the Wait of an Irecv, on rank r at the
// message's arrival.
func (p *replayer) Receive(r int, kind mpi.EventKind, arrival float64) {
	start := p.clock[r]
	end := arrival
	if end < start {
		end = start
	}
	end += p.net.RecvOverhead()
	p.tl.add(r, kind, start, end, 0)
	p.res.CommTime[r] += end - start
	p.clock[r] = end
}
