// Package commx implements communication-trace extrapolation — the
// complement the paper points to in its related work (Wu & Mueller's
// ScalaExtrap): where internal/extrap scales an application's *computation*
// behaviour, commx scales its *communication* structure. The communication
// of a run is summarized from its compiled program (neighbor topology,
// messages per neighbor, payload sizes, collective structure), each
// summary field is fitted against the same canonical forms, and a
// synthetic communication program is described at the target core count.
package commx

import (
	"fmt"
	"math"

	"tracex/internal/mpi"
	"tracex/internal/stats"
)

// Profile summarizes the communication of one run at one core count, seen
// from a reference rank (the dominant/corner rank 0 by convention) plus the
// program-wide collective structure.
type Profile struct {
	// CoreCount is the run's size.
	CoreCount int
	// Neighbors is the number of distinct point-to-point peers of the
	// reference rank.
	Neighbors int
	// MessagesPerNeighbor is the reference rank's sends per peer.
	MessagesPerNeighbor float64
	// BytesPerMessage is the mean payload of the reference rank's sends.
	BytesPerMessage float64
	// Collectives is the number of collective operations per rank.
	Collectives int
	// CollectiveBytes is the mean collective payload.
	CollectiveBytes float64
}

// Summarize extracts the communication profile of the compiled program c
// from the given reference rank. A send's peer is the rank whose receive
// shares the send's message slot, which one scan of the ops finds.
func Summarize(c *mpi.Compiled, rank int) (Profile, error) {
	n := len(c.Off) - 1
	if rank < 0 || rank >= n {
		return Profile{}, fmt.Errorf("commx: rank %d out of range", rank)
	}
	p := Profile{CoreCount: n}
	sent := make([]bool, c.Slots) // the slots of the reference rank's sends
	var sends int
	var sendBytes, collBytes uint64
	for _, op := range c.Ops[c.Off[rank]:c.Off[rank+1]] {
		switch {
		case op.Kind == mpi.Send || op.Kind == mpi.Isend:
			sent[op.Slot] = true
			sends++
			sendBytes += op.Arg
		case op.Kind.IsCollective():
			p.Collectives++
			collBytes += op.Arg
		}
	}
	for r := 0; r < n; r++ {
		for _, op := range c.Ops[c.Off[r]:c.Off[r+1]] {
			if (op.Kind == mpi.Recv || op.Kind == mpi.Irecv) && sent[op.Slot] {
				p.Neighbors++
				break
			}
		}
	}
	if p.Neighbors > 0 {
		p.MessagesPerNeighbor = float64(sends) / float64(p.Neighbors)
	}
	if sends > 0 {
		p.BytesPerMessage = float64(sendBytes) / float64(sends)
	}
	if p.Collectives > 0 {
		p.CollectiveBytes = float64(collBytes) / float64(p.Collectives)
	}
	return p, nil
}

// Extrapolated is the synthesized communication profile at a target count,
// with the canonical form selected for each field.
type Extrapolated struct {
	Profile Profile
	// Forms records the canonical form chosen per field.
	Forms map[string]string
}

// Extrapolate fits each profile field across the input core counts with the
// canonical forms and evaluates at targetCores. At least two input profiles
// at distinct counts are required; the target must exceed the largest.
func Extrapolate(profiles []Profile, targetCores int) (*Extrapolated, error) {
	if len(profiles) < 2 {
		return nil, fmt.Errorf("commx: need at least 2 input profiles, have %d", len(profiles))
	}
	xs := make([]float64, len(profiles))
	maxIn := 0
	for i, p := range profiles {
		xs[i] = float64(p.CoreCount)
		if p.CoreCount > maxIn {
			maxIn = p.CoreCount
		}
		for j := 0; j < i; j++ {
			if profiles[j].CoreCount == p.CoreCount {
				return nil, fmt.Errorf("commx: duplicate input core count %d", p.CoreCount)
			}
		}
	}
	if targetCores <= maxIn {
		return nil, fmt.Errorf("commx: target %d not beyond largest input %d", targetCores, maxIn)
	}
	fields := []struct {
		name string
		get  func(Profile) float64
		set  func(*Profile, float64)
	}{
		{"neighbors", func(p Profile) float64 { return float64(p.Neighbors) },
			func(p *Profile, v float64) { p.Neighbors = int(math.Round(math.Max(0, v))) }},
		{"messages_per_neighbor", func(p Profile) float64 { return p.MessagesPerNeighbor },
			func(p *Profile, v float64) { p.MessagesPerNeighbor = math.Max(0, v) }},
		{"bytes_per_message", func(p Profile) float64 { return p.BytesPerMessage },
			func(p *Profile, v float64) { p.BytesPerMessage = math.Max(0, v) }},
		{"collectives", func(p Profile) float64 { return float64(p.Collectives) },
			func(p *Profile, v float64) { p.Collectives = int(math.Round(math.Max(0, v))) }},
		{"collective_bytes", func(p Profile) float64 { return p.CollectiveBytes },
			func(p *Profile, v float64) { p.CollectiveBytes = math.Max(0, v) }},
	}
	out := &Extrapolated{
		Profile: Profile{CoreCount: targetCores},
		Forms:   map[string]string{},
	}
	for _, f := range fields {
		ys := make([]float64, len(profiles))
		for i, p := range profiles {
			ys[i] = f.get(p)
		}
		table, err := stats.FitAll(nil, xs, ys)
		if err != nil {
			return nil, fmt.Errorf("commx: fitting %s: %w", f.name, err)
		}
		fit := table.Best()
		f.set(&out.Profile, fit.Model.Eval(float64(targetCores)))
		out.Forms[f.name] = fit.Model.Name()
	}
	return out, nil
}

// Synthesize describes a pure-communication program at the profile's core
// count, for mpi.Compile: the topology is inferred from the neighbor count
// (≤6 face neighbors ⇒ 3D cartesian halo exchange), message payloads and
// repetition come from the profile, and the collective structure is
// reproduced as allreduces of the profiled payload, spread over the steps
// with the remainder on the first ones, or run once when there are no
// steps. The reference rank 0 is a grid corner, so its neighbor count is
// the corner degree of the inferred topology.
func Synthesize(p Profile) (func(*mpi.Builder), error) {
	if p.CoreCount < 1 {
		return nil, fmt.Errorf("commx: non-positive core count")
	}
	g, err := mpi.NewGrid3D(p.CoreCount)
	if err != nil {
		return nil, err
	}
	cornerDegree := 0
	for _, n := range []int{g.Px, g.Py, g.Pz} {
		if n > 1 {
			cornerDegree++
		}
	}
	if p.Neighbors > 0 && p.CoreCount > 1 && cornerDegree != p.Neighbors {
		return nil, fmt.Errorf("commx: profile has %d corner neighbors but a %dx%dx%d grid has %d — topology mismatch",
			p.Neighbors, g.Px, g.Py, g.Pz, cornerDegree)
	}
	steps := max(0, int(math.Round(p.MessagesPerNeighbor)))
	faceBytes := uint64(math.Round(p.BytesPerMessage))
	collBytes := uint64(math.Round(p.CollectiveBytes))
	if collBytes == 0 {
		collBytes = 8
	}
	// rounds is the number of rounds of collectives: one per step, or one
	// alone.
	rounds := max(steps, 1)
	return func(b *mpi.Builder) {
		for s := 0; s < rounds; s++ {
			if s < steps && p.CoreCount > 1 && faceBytes > 0 {
				b.HaloExchange3D(g, faceBytes, 1000*s)
			}
			colls := p.Collectives / rounds
			if s < p.Collectives%rounds {
				colls++
			}
			for c := 0; c < colls; c++ {
				b.Allreduce(collBytes)
			}
		}
	}, nil
}

// CompareProfiles returns per-field absolute relative errors between a
// synthesized profile and the ground truth.
func CompareProfiles(extrapolated, actual Profile) map[string]float64 {
	return map[string]float64{
		"neighbors":             stats.AbsRelErr(float64(extrapolated.Neighbors), float64(actual.Neighbors)),
		"messages_per_neighbor": stats.AbsRelErr(extrapolated.MessagesPerNeighbor, actual.MessagesPerNeighbor),
		"bytes_per_message":     stats.AbsRelErr(extrapolated.BytesPerMessage, actual.BytesPerMessage),
		"collectives":           stats.AbsRelErr(float64(extrapolated.Collectives), float64(actual.Collectives)),
		"collective_bytes":      stats.AbsRelErr(extrapolated.CollectiveBytes, actual.CollectiveBytes),
	}
}
