package psins

import (
	"context"
	"fmt"
	"strconv"

	"tracex/internal/mpi"
	"tracex/internal/obs"
)

// This file keeps the replay of compiled programs that Replay replaced: a
// scheduler over a Schedule's ops that runs each rank until a receive,
// Wait or collective blocks it, then the next rank. It replays explicit
// programs that no Builder pattern emits (deadlocks, NIC ordering,
// collective mismatches, non-blocking pairing) and is the oracle that
// FuzzReplayMatchesOracle and the timeline-order test hold Replay to.

// collState tracks one collective occurrence while ranks arrive at it.
type collState struct {
	kind    mpi.EventKind
	bytes   uint64
	arrived int
	maxT    float64
	done    bool
	endT    float64
}

// Schedule is a program compiled for replay (mpi.Compiled): every event as
// a 16-byte op, with its point-to-point matching resolved into message
// slots, each shared by a message's send and its receive (and the
// receive's Wait). A Schedule is immutable, so one compiled program can be
// replayed any number of times, under different costs and networks.
type Schedule struct {
	prog *mpi.Compiled
}

// CompileBuild compiles the n-rank program that build describes straight
// from the Builder's patterns (mpi.Compile), without materializing its
// events.
func CompileBuild(app string, n int, build func(*mpi.Builder)) (*Schedule, error) {
	c, err := mpi.Compile(app, n, build)
	if err != nil {
		return nil, err
	}
	return &Schedule{prog: c}, nil
}

// Replay performs a discrete-event replay of the compiled program, one
// rank at a time, running each as far as it can before the next: per-rank
// virtual clocks advance through each rank's event list, blocking receives
// and Waits on receives wait for their message slot's arrival under the
// network model, and collectives synchronize all ranks. The cost callback
// supplies compute-segment durations. Cancelling ctx stops the replay
// promptly mid-schedule and returns ctx.Err(); when tl is non-nil every
// rank's compute and communication intervals are appended to it (memory
// grows with the event count — use judiciously at large rank counts).
// Replay returns an error for replays that deadlock (which cannot happen
// for programs produced by mpi.Builder) and for collectives whose kind or
// payload differs between ranks.
func (s *Schedule) Replay(ctx context.Context, net Network, cost ComputeCost, tl *Timeline) (*Result, error) {
	if cost == nil {
		return nil, fmt.Errorf("psins: nil compute cost")
	}
	ops, off, computes := s.prog.Ops, s.prog.Off, s.prog.Computes
	n := len(off) - 1
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
		Messages:    s.prog.Messages,
	}
	clock := make([]float64, n)
	pc := make([]int, n)      // index in ops of each rank's next op
	collIdx := make([]int, n) // next collective occurrence index per rank
	collReg := make([]int, n) // collectives rank r has registered arrival at
	// arrivals[slot] is when the message in slot reaches its receiver, valid
	// once ready[slot] (its send has executed).
	arrivals := make([]float64, s.prog.Slots)
	ready := make([]bool, s.prog.Slots)
	// nicFree[r] is when rank r's NIC finishes injecting its previous
	// message: consecutive sends from one rank serialize at the NIC even
	// though the CPU only pays the per-message overhead.
	nicFree := make([]float64, n)
	inject := func(r int, sendTime float64, bytes uint64) float64 {
		start := sendTime
		if nicFree[r] > start {
			start = nicFree[r]
		}
		ser := net.SerializationTime(bytes)
		nicFree[r] = start + ser
		return start + ser + net.Latency()
	}
	// receive completes a Recv, or the Wait of an Irecv, on rank r at the
	// message's arrival.
	receive := func(r int, kind mpi.EventKind, arrival float64) {
		start := clock[r]
		end := arrival
		if end < start {
			end = start
		}
		end += net.RecvOverhead()
		tl.add(r, kind, start, end, 0)
		res.CommTime[r] += end - start
		clock[r] = end
	}
	colls := make([]collState, 0, s.prog.Collectives)
	unfinished := 0
	for r := 0; r < n; r++ {
		pc[r] = off[r]
		if off[r+1] > off[r] {
			unfinished++
		}
	}

	var replayed int
	for unfinished > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		progress := false
		for r := 0; r < n; r++ {
			end := off[r+1]
			if pc[r] == end {
				continue
			}
			// Drain as many events as possible for this rank before moving
			// on; only a blocked receive, Wait or collective stops it.
		rankLoop:
			for pc[r] < end {
				if replayed++; replayed&ctxCheckMask == 0 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				op := &ops[pc[r]]
				slot := op.Slot
				switch op.Kind {
				case mpi.Compute:
					w := computes[op.Arg]
					dt, err := cost(r, w.BlockID, w.Share)
					if err != nil {
						return nil, fmt.Errorf("psins: rank %d block %d: %w", r, w.BlockID, err)
					}
					if dt < 0 {
						return nil, fmt.Errorf("psins: negative compute cost %g for block %d", dt, w.BlockID)
					}
					tl.add(r, mpi.Compute, clock[r], clock[r]+dt, w.BlockID)
					clock[r] += dt
					res.ComputeTime[r] += dt
				case mpi.Send, mpi.Isend:
					// Sends are eager: the CPU pays the injection overhead
					// at post time, and an Isend's Wait is then free.
					o := net.SendOverhead(op.Arg)
					arrivals[slot] = inject(r, clock[r]+o, op.Arg)
					ready[slot] = true
					tl.add(r, op.Kind, clock[r], clock[r]+o, 0)
					clock[r] += o
					res.CommTime[r] += o
				case mpi.Recv:
					if !ready[slot] {
						break rankLoop // blocked: matching send not yet executed
					}
					receive(r, mpi.Recv, arrivals[slot])
				case mpi.Irecv:
					// Posting costs no time; the slot was reserved in
					// posting order at compile time.
				case mpi.Wait:
					if slot >= 0 { // an Irecv's Wait; an Isend's is complete
						if !ready[slot] {
							break rankLoop // message not yet injected by the sender
						}
						receive(r, mpi.Wait, arrivals[slot])
					}
				default: // collective
					idx := collIdx[r]
					for len(colls) <= idx {
						colls = append(colls, collState{kind: op.Kind, bytes: op.Arg})
					}
					st := &colls[idx]
					if st.kind != op.Kind || st.bytes != op.Arg {
						return nil, fmt.Errorf("psins: rank %d collective %d is %s/%dB, others ran %s/%dB",
							r, idx, op.Kind, op.Arg, st.kind, st.bytes)
					}
					if collReg[r] == idx {
						// First visit by this rank: register arrival.
						st.arrived++
						collReg[r] = idx + 1
						if clock[r] > st.maxT {
							st.maxT = clock[r]
						}
						if st.arrived == n {
							c, err := net.CollectiveCost(st.kind, n, st.bytes)
							if err != nil {
								return nil, err
							}
							st.done = true
							st.endT = st.maxT + c
						}
						progress = true
					}
					if !st.done {
						break rankLoop // wait for the other ranks
					}
					tl.add(r, op.Kind, clock[r], st.endT, 0)
					res.CommTime[r] += st.endT - clock[r]
					clock[r] = st.endT
					collIdx[r]++
				}
				pc[r]++
				progress = true
			}
			if pc[r] == end {
				unfinished--
			}
		}
		if !progress {
			return nil, fmt.Errorf("psins: replay deadlocked with %d/%d ranks incomplete",
				unfinished, n)
		}
	}
	for r := 0; r < n; r++ {
		res.RankEnd[r] = clock[r]
		if clock[r] > res.Runtime {
			res.Runtime = clock[r]
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
	m.Counter("psins.events").Add(uint64(len(ops)))
	m.Counter("psins.messages").Add(uint64(res.Messages))
	m.Gauge("psins.compute_seconds").Add(compute)
	m.Gauge("psins.comm_seconds").Add(comm)
	return res, nil
}
