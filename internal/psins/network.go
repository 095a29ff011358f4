// Package psins reimplements the role of the PSiNS simulator in the PMaC
// framework: it replays a parallel application's event trace against a
// target machine model to produce a predicted runtime. The package provides
// three pieces: a LogGP-style network model, a discrete-event replay
// (Replay) that prices each event of an application's mpi.Builder
// description in one walk of it (mpi.Walk), and the convolution that maps
// an application signature onto a machine profile (Equation 1 of the
// paper) to obtain per-basic-block computation times.
package psins

import (
	"fmt"
	"math"

	"tracex/internal/machine"
	"tracex/internal/mpi"
)

// Network is a LogGP-style interconnect model built from a machine's
// network configuration.
type Network struct {
	latency  float64 // seconds, one-way wire latency (L)
	overhead float64 // seconds, per-message CPU overhead (o)
	perByte  float64 // seconds per payload byte (1/BW)
}

// NewNetwork builds the network model for cfg.
func NewNetwork(cfg machine.NetworkConfig) (Network, error) {
	if err := cfg.Validate(); err != nil {
		return Network{}, err
	}
	return Network{
		latency:  cfg.LatencyUS * 1e-6,
		overhead: cfg.OverheadUS * 1e-6,
		perByte:  1 / (cfg.BandwidthGBs * 1e9),
	}, nil
}

// SendOverhead is the time the sending CPU is busy injecting a message.
func (n Network) SendOverhead(bytes uint64) float64 {
	return n.overhead
}

// RecvOverhead is the time the receiving CPU spends completing a message.
func (n Network) RecvOverhead() float64 { return n.overhead }

// Latency is the one-way wire latency.
func (n Network) Latency() float64 { return n.latency }

// SerializationTime is the time the sender's NIC is occupied injecting the
// payload; consecutive sends from one rank serialize behind it.
func (n Network) SerializationTime(bytes uint64) float64 {
	return float64(bytes) * n.perByte
}

// RingThresholdBytes is the payload size above which allreduce and bcast
// switch from latency-optimal binomial trees to bandwidth-optimal ring
// algorithms, mirroring production MPI implementations.
const RingThresholdBytes = 64 << 10

// CollectiveCost returns the completion time of a collective over p ranks
// with the given per-rank payload, measured from the moment the last rank
// arrives. Small payloads use latency-optimal binomial trees; large
// payloads use bandwidth-optimal ring algorithms (reduce-scatter +
// allgather for allreduce, pipelined ring for bcast), the algorithm switch
// production MPI libraries perform.
func (n Network) CollectiveCost(kind mpi.EventKind, p int, bytes uint64) (float64, error) {
	if p <= 0 {
		return 0, fmt.Errorf("psins: collective over %d ranks", p)
	}
	if p == 1 {
		return 0, nil
	}
	steps := math.Ceil(math.Log2(float64(p)))
	hop := n.latency + n.overhead
	ser := float64(bytes) * n.perByte
	pf := float64(p)
	switch kind {
	case mpi.Barrier:
		return steps * hop, nil
	case mpi.Bcast:
		if bytes > RingThresholdBytes {
			// Pipelined ring: p-1 hops of latency, each rank forwards the
			// full payload once.
			return (pf-1)*hop + ser, nil
		}
		return steps * (hop + ser), nil
	case mpi.Allreduce:
		if bytes > RingThresholdBytes {
			// Ring reduce-scatter + allgather: 2(p-1) steps, each moving
			// bytes/p; total wire time ≈ 2·bytes·(p-1)/p per rank.
			return 2*(pf-1)*hop + 2*ser*(pf-1)/pf, nil
		}
		// Reduce up the tree, broadcast down: two tree traversals.
		return 2 * steps * (hop + ser), nil
	case mpi.Reduce:
		// One binomial tree traversal toward the root.
		return steps * (hop + ser), nil
	case mpi.Allgather:
		// Ring allgather: p-1 steps each forwarding the per-rank payload;
		// total wire time ≈ bytes·(p-1).
		return (pf-1)*hop + ser*(pf-1), nil
	case mpi.Alltoall:
		// p-1 pairwise exchanges, each carrying the per-pair payload.
		return (pf - 1) * (hop + ser), nil
	default:
		return 0, fmt.Errorf("psins: %s is not a collective", kind)
	}
}
