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

// collState tracks one collective occurrence while ranks arrive at it.
type collState struct {
	kind    mpi.EventKind
	bytes   uint64
	arrived int
	maxT    float64
	done    bool
	endT    float64
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
// omitted.
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

// Schedule is a program compiled for replay: the program's events, read in
// place, plus its static point-to-point matching, which gives every message
// a slot shared by its send and its receive (and the receive's Wait). A
// Schedule is immutable, so one compiled program can be replayed any number
// of times, concurrently, under different costs and networks; the program
// must not change after Compile.
type Schedule struct {
	prog  *mpi.Program
	off   []int // off[r] is the index of rank r's first event in match.Slot
	match *mpi.Matching
}

// Compile validates prog (every check of mpi.Program.Validate) and resolves
// its point-to-point matching into message slots. It is the only validation
// a replay needs.
func Compile(prog *mpi.Program) (*Schedule, error) {
	m, err := prog.Match()
	if err != nil {
		return nil, err
	}
	off := make([]int, len(prog.Ranks)+1)
	for r, evs := range prog.Ranks {
		off[r+1] = off[r] + len(evs)
	}
	return &Schedule{prog: prog, off: off, match: m}, nil
}

// Replay compiles prog and replays it once; see Schedule.Replay. Callers
// that replay one program several times compile it once instead.
func Replay(prog *mpi.Program, net Network, cost ComputeCost) (*Result, error) {
	s, err := Compile(prog)
	if err != nil {
		return nil, err
	}
	return s.Replay(context.Background(), net, cost, nil)
}

// ctxCheckMask throttles cancellation polling in the replay scheduler: the
// context is consulted every ctxCheckMask+1 replayed events.
const ctxCheckMask = 1<<12 - 1

// Replay performs a discrete-event replay of the compiled program: per-rank
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
	ranks := s.prog.Ranks
	n := len(ranks)
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
		Messages:    s.match.Messages,
	}
	clock := make([]float64, n)
	pc := make([]int, n)
	collIdx := make([]int, n) // next collective occurrence index per rank
	collReg := make([]int, n) // collectives rank r has registered arrival at
	// arrivals[slot] is when the message in slot reaches its receiver, valid
	// once ready[slot] (its send has executed).
	arrivals := make([]float64, s.match.Messages)
	ready := make([]bool, s.match.Messages)
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
	colls := make([]collState, 0, s.match.Collectives)
	unfinished := 0
	for _, evs := range ranks {
		if len(evs) > 0 {
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
			evs := ranks[r]
			slots := s.match.Slot[s.off[r]:s.off[r+1]]
			if pc[r] == len(evs) {
				continue
			}
			// Drain as many events as possible for this rank before moving
			// on; only a blocked receive, Wait or collective stops it.
		rankLoop:
			for pc[r] < len(evs) {
				if replayed++; replayed&ctxCheckMask == 0 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				e := &evs[pc[r]]
				slot := slots[pc[r]]
				switch e.Kind {
				case mpi.Compute:
					dt, err := cost(r, e.BlockID, e.Share)
					if err != nil {
						return nil, fmt.Errorf("psins: rank %d block %d: %w", r, e.BlockID, err)
					}
					if dt < 0 {
						return nil, fmt.Errorf("psins: negative compute cost %g for block %d", dt, e.BlockID)
					}
					tl.add(r, mpi.Compute, clock[r], clock[r]+dt, e.BlockID)
					clock[r] += dt
					res.ComputeTime[r] += dt
				case mpi.Send, mpi.Isend:
					// Sends are eager: the CPU pays the injection overhead
					// at post time, and an Isend's Wait is then free.
					o := net.SendOverhead(e.Bytes)
					arrivals[slot] = inject(r, clock[r]+o, e.Bytes)
					ready[slot] = true
					tl.add(r, e.Kind, clock[r], clock[r]+o, 0)
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
						colls = append(colls, collState{kind: e.Kind, bytes: e.Bytes})
					}
					st := &colls[idx]
					if st.kind != e.Kind || st.bytes != e.Bytes {
						return nil, fmt.Errorf("psins: rank %d collective %d is %s/%dB, others ran %s/%dB",
							r, idx, e.Kind, e.Bytes, st.kind, st.bytes)
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
					tl.add(r, e.Kind, clock[r], st.endT, 0)
					res.CommTime[r] += st.endT - clock[r]
					clock[r] = st.endT
					collIdx[r]++
				}
				pc[r]++
				progress = true
			}
			if pc[r] == len(evs) {
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
	m.Counter("psins.events").Add(uint64(s.off[n]))
	m.Counter("psins.messages").Add(uint64(res.Messages))
	m.Gauge("psins.compute_seconds").Add(compute)
	m.Gauge("psins.comm_seconds").Add(comm)
	return res, nil
}
