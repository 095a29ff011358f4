package psins

import (
	"math"
	"testing"

	"tracex/internal/mpi"
)

func TestReplayIsendWaitIsEager(t *testing.T) {
	// An Isend's Wait completes immediately: the sender never blocks on
	// the receiver.
	prog := &mpi.Program{App: "nb", Ranks: [][]mpi.Event{
		{
			{Kind: mpi.Isend, Peer: 1, Tag: 0, Bytes: 8, Request: 0},
			{Kind: mpi.Wait, Request: 0},
		},
		{
			{Kind: mpi.Compute, BlockID: 1, Share: 1},
			{Kind: mpi.Recv, Peer: 0, Tag: 0, Bytes: 8},
		},
	}}
	cost := func(rank int, blockID uint64, share float64) (float64, error) { return 3.0, nil }
	res, err := replay(prog, testNet(t), cost)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	// Sender finishes after just the injection overhead, long before the
	// receiver's 3 s compute.
	if res.RankEnd[0] > 0.001 {
		t.Errorf("eager sender blocked until %g", res.RankEnd[0])
	}
	if res.RankEnd[1] < 3.0 {
		t.Errorf("receiver end %g", res.RankEnd[1])
	}
}

func TestReplayIrecvOverlapsCompute(t *testing.T) {
	// Rank 1 posts an Irecv, computes 1 s while the (slow, big) message is
	// in flight, then Waits. Overlap means total time ≈ max(compute,
	// message flight), not the sum.
	const bigBytes = 2_000_000_000 // 1 s of serialization at 2 GB/s
	prog := &mpi.Program{App: "nb", Ranks: [][]mpi.Event{
		{
			{Kind: mpi.Send, Peer: 1, Tag: 0, Bytes: bigBytes},
		},
		{
			{Kind: mpi.Irecv, Peer: 0, Tag: 0, Bytes: bigBytes, Request: 7},
			{Kind: mpi.Compute, BlockID: 1, Share: 1},
			{Kind: mpi.Wait, Request: 7},
		},
	}}
	cost := func(rank int, blockID uint64, share float64) (float64, error) { return 1.0, nil }
	res, err := replay(prog, testNet(t), cost)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	flight := 1e-6 + 5e-6 + float64(bigBytes)/2e9 // o + L + ser ≈ 1.000006 s
	want := flight + 1e-6                         // recv overhead at Wait
	if math.Abs(res.RankEnd[1]-want) > 1e-3 {
		t.Errorf("receiver end %g, want ≈%g (compute hidden under transfer)", res.RankEnd[1], want)
	}
	// The blocking-receive version would take compute + flight ≈ 2 s.
	if res.RankEnd[1] > 1.5 {
		t.Errorf("no communication/computation overlap: end %g", res.RankEnd[1])
	}
}

func TestReplayIrecvPostingOrderMatching(t *testing.T) {
	// Two messages, two Irecvs posted in order: first posted request gets
	// the first-sent message even if waited in reverse order.
	prog := &mpi.Program{App: "nb", Ranks: [][]mpi.Event{
		{
			{Kind: mpi.Send, Peer: 1, Tag: 0, Bytes: 8},
			{Kind: mpi.Compute, BlockID: 1, Share: 1},
			{Kind: mpi.Send, Peer: 1, Tag: 0, Bytes: 8},
		},
		{
			{Kind: mpi.Irecv, Peer: 0, Tag: 0, Bytes: 8, Request: 0},
			{Kind: mpi.Irecv, Peer: 0, Tag: 0, Bytes: 8, Request: 1},
			{Kind: mpi.Wait, Request: 1}, // second message: after the 2 s compute
			{Kind: mpi.Wait, Request: 0}, // first message: already there
		},
	}}
	cost := func(rank int, blockID uint64, share float64) (float64, error) { return 2.0, nil }
	res, err := replay(prog, testNet(t), cost)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	// Receiver completes shortly after the second send (t ≈ 2 s).
	if res.RankEnd[1] < 2.0 || res.RankEnd[1] > 2.1 {
		t.Errorf("receiver end %g, want ≈2 s", res.RankEnd[1])
	}
}

func TestReplayWaitUnknownRequest(t *testing.T) {
	prog := &mpi.Program{App: "nb", Ranks: [][]mpi.Event{
		{{Kind: mpi.Isend, Peer: 1, Tag: 0, Bytes: 8, Request: 0}, {Kind: mpi.Wait, Request: 0}},
		{{Kind: mpi.Recv, Peer: 0, Tag: 0, Bytes: 8}, {Kind: mpi.Wait, Request: 9}},
	}}
	// Program.Validate rejects this (wait on unposted request), so Replay
	// must too.
	if _, err := replay(prog, testNet(t), flatCost(0)); err == nil {
		t.Error("wait on unposted request accepted")
	}
}

func TestReplayNonblockingHaloProgram(t *testing.T) {
	g, err := mpi.NewGrid3D(27)
	if err != nil {
		t.Fatal(err)
	}
	res, err := replayBuild(27, func(b *mpi.Builder) {
		for step := 0; step < 3; step++ {
			b.ComputeAll(1, 1.0/3).HaloExchange3DNonblocking(g, 64<<10, step*100).Allreduce(8)
		}
	}, testNet(t), flatCost(0.05))
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	for r := range res.ComputeTime {
		if math.Abs(res.ComputeTime[r]-0.05) > 1e-9 {
			t.Fatalf("rank %d compute %g", r, res.ComputeTime[r])
		}
	}
	if res.Runtime <= 0.05 {
		t.Errorf("runtime %g below pure compute", res.Runtime)
	}
}

func TestNonblockingMatchesBlockingVolumes(t *testing.T) {
	g, _ := mpi.NewGrid3D(8)
	blocking, err := mpi.Compile("b", 8, func(b *mpi.Builder) { b.HaloExchange3D(g, 4096, 0) })
	if err != nil {
		t.Fatal(err)
	}
	nonblocking, err := mpi.Compile("nb", 8, func(b *mpi.Builder) { b.HaloExchange3DNonblocking(g, 4096, 0) })
	if err != nil {
		t.Fatal(err)
	}
	if blocking.Messages != nonblocking.Messages {
		t.Errorf("message counts differ: %d vs %d", blocking.Messages, nonblocking.Messages)
	}
	if blocking.PayloadBytes() != nonblocking.PayloadBytes() {
		t.Errorf("byte volumes differ: %d vs %d", blocking.PayloadBytes(), nonblocking.PayloadBytes())
	}
}

func TestNonblockingHaloFasterThanBlocking(t *testing.T) {
	// With every rank exchanging simultaneously, posting all receives
	// before sending lets transfers overlap; the blocking version
	// serializes each rank's receives after its sends. Non-blocking must
	// not be slower.
	g, _ := mpi.NewGrid3D(64)
	mk := func(nb bool) func(*mpi.Builder) {
		return func(b *mpi.Builder) {
			for step := 0; step < 4; step++ {
				b.ComputeAll(1, 0.25)
				if nb {
					b.HaloExchange3DNonblocking(g, 1<<20, step*100)
				} else {
					b.HaloExchange3D(g, 1<<20, step*100)
				}
			}
		}
	}
	net := testNet(t)
	rb, err := replayBuild(64, mk(false), net, flatCost(0.01))
	if err != nil {
		t.Fatal(err)
	}
	rnb, err := replayBuild(64, mk(true), net, flatCost(0.01))
	if err != nil {
		t.Fatal(err)
	}
	if rnb.Runtime > rb.Runtime*1.0001 {
		t.Errorf("non-blocking halo slower: %g vs %g", rnb.Runtime, rb.Runtime)
	}
}
