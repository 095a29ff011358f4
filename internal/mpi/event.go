// Package mpi models the MPI layer of a parallel application as replayable
// per-rank event traces: compute segments referencing basic blocks,
// point-to-point messages, and collectives. It is the substrate the PSiNS
// replay simulator consumes and the PSiNSTracer-style lightweight profiler
// summarizes, standing in for a real MPI implementation and the paper's
// event tracing tools.
package mpi

import "fmt"

// EventKind enumerates the event types a rank's trace may contain.
type EventKind int

// Event kinds. Compute segments carry a basic-block reference; Send/Recv
// are blocking eager point-to-point operations; Isend/Irecv post
// non-blocking operations completed by a matching Wait; the collectives
// synchronize all ranks of the program.
const (
	Compute EventKind = iota
	Send
	Recv
	Isend
	Irecv
	Wait
	Barrier
	Allreduce
	Bcast
	Alltoall
	Reduce
	Allgather
)

var kindNames = [...]string{
	Compute:   "compute",
	Send:      "send",
	Recv:      "recv",
	Isend:     "isend",
	Irecv:     "irecv",
	Wait:      "wait",
	Barrier:   "barrier",
	Allreduce: "allreduce",
	Bcast:     "bcast",
	Alltoall:  "alltoall",
	Reduce:    "reduce",
	Allgather: "allgather",
}

// String returns the kind's name.
func (k EventKind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// IsCollective reports whether the kind synchronizes all ranks.
func (k EventKind) IsCollective() bool {
	switch k {
	case Barrier, Allreduce, Bcast, Alltoall, Reduce, Allgather:
		return true
	}
	return false
}

// Event is one entry in a rank's event trace.
type Event struct {
	// Kind selects which of the remaining fields are meaningful.
	Kind EventKind
	// Peer is the other rank for Send/Recv and the root for Bcast.
	Peer int
	// Tag disambiguates point-to-point message streams.
	Tag int
	// Bytes is the message payload size for communication events.
	Bytes uint64
	// BlockID names the basic block a Compute segment executes.
	BlockID uint64
	// Share is the fraction of the block's total per-rank work performed
	// in this compute segment (a block split across phases has several
	// segments whose shares sum to 1).
	Share float64
	// Request identifies a non-blocking operation within its rank: an
	// Isend/Irecv posts request r, the matching Wait carries the same r.
	Request int
}

// Validate checks an event in the context of a program with n ranks, from
// the perspective of rank self.
func (e Event) Validate(self, n int) error {
	switch e.Kind {
	case Compute:
		if e.Share <= 0 || e.Share > 1 {
			return fmt.Errorf("mpi: compute share %g outside (0,1]", e.Share)
		}
	case Send, Recv, Isend, Irecv:
		if e.Peer < 0 || e.Peer >= n {
			return fmt.Errorf("mpi: %s peer %d out of range [0,%d)", e.Kind, e.Peer, n)
		}
		if e.Peer == self {
			return fmt.Errorf("mpi: %s to self (rank %d)", e.Kind, self)
		}
		if e.Bytes == 0 {
			return fmt.Errorf("mpi: zero-byte %s", e.Kind)
		}
	case Wait:
		// Request pairing is checked program-wide in Program.Validate.
	case Bcast, Reduce:
		if e.Peer < 0 || e.Peer >= n {
			return fmt.Errorf("mpi: %s root %d out of range", e.Kind, e.Peer)
		}
		if e.Bytes == 0 {
			return fmt.Errorf("mpi: zero-byte %s", e.Kind)
		}
	case Allreduce, Alltoall, Allgather:
		if e.Bytes == 0 {
			return fmt.Errorf("mpi: zero-byte %s", e.Kind)
		}
	case Barrier:
		// No payload fields.
	default:
		return fmt.Errorf("mpi: unknown event kind %d", int(e.Kind))
	}
	return nil
}

// Program is a complete replayable application: one event trace per rank.
type Program struct {
	// App names the application the program represents.
	App string
	// Ranks[r] is the ordered event trace of rank r.
	Ranks [][]Event
}

// NumRanks returns the number of ranks in the program.
func (p *Program) NumRanks() int { return len(p.Ranks) }

// TotalMessages counts point-to-point sends (blocking and non-blocking) in
// the program.
func (p *Program) TotalMessages() int {
	var n int
	for _, evs := range p.Ranks {
		for _, e := range evs {
			if e.Kind == Send || e.Kind == Isend {
				n++
			}
		}
	}
	return n
}

// TotalBytes sums point-to-point payload bytes in the program.
func (p *Program) TotalBytes() uint64 {
	var b uint64
	for _, evs := range p.Ranks {
		for _, e := range evs {
			if e.Kind == Send || e.Kind == Isend {
				b += e.Bytes
			}
		}
	}
	return b
}
