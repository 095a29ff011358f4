package psins

import (
	"context"
	"math"
	"testing"

	"tracex/internal/machine"
	"tracex/internal/mpi"
)

func testNet(t *testing.T) Network {
	t.Helper()
	n, err := NewNetwork(machine.NetworkConfig{LatencyUS: 5, BandwidthGBs: 2, OverheadUS: 1})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	return n
}

func flatCost(perShare float64) ComputeCost {
	return func(rank int, blockID uint64, share float64) (float64, error) {
		return perShare * share, nil
	}
}

// replay compiles the explicit program prog with the event compiler, as a
// Schedule, and replays it once.
func replay(prog *mpi.Program, net Network, cost ComputeCost) (*Result, error) {
	c, err := prog.Compile()
	if err != nil {
		return nil, err
	}
	return (&Schedule{prog: c}).Replay(context.Background(), net, cost, nil)
}

// replayBuild compiles the n-rank program that build describes and replays
// it once.
func replayBuild(n int, build func(*mpi.Builder), net Network, cost ComputeCost) (*Result, error) {
	s, err := CompileBuild("test", n, build)
	if err != nil {
		return nil, err
	}
	return s.Replay(context.Background(), net, cost, nil)
}

func TestNewNetworkRejectsBadConfig(t *testing.T) {
	if _, err := NewNetwork(machine.NetworkConfig{LatencyUS: 1, BandwidthGBs: 0, OverheadUS: 1}); err == nil {
		t.Error("zero bandwidth accepted")
	}
}

func TestNetworkP2PTimes(t *testing.T) {
	n := testNet(t)
	if got := n.SendOverhead(100); got != 1e-6 {
		t.Errorf("SendOverhead = %g", got)
	}
	if got := n.RecvOverhead(); got != 1e-6 {
		t.Errorf("RecvOverhead = %g", got)
	}
	// Transit = 5 µs + bytes / 2 GB/s.
	want := 5e-6 + 2e9/(2e9)
	if got := n.SerializationTime(2e9) + n.Latency(); math.Abs(got-want) > 1e-12 {
		t.Errorf("SerializationTime + Latency = %g, want %g", got, want)
	}
}

func TestCollectiveCosts(t *testing.T) {
	n := testNet(t)
	bar8, err := n.CollectiveCost(mpi.Barrier, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 3 tree steps of (L+o) = 3 × 6 µs.
	if math.Abs(bar8-18e-6) > 1e-12 {
		t.Errorf("barrier(8) = %g, want 18 µs", bar8)
	}
	// Costs grow with rank count.
	bar64, _ := n.CollectiveCost(mpi.Barrier, 64, 0)
	if bar64 <= bar8 {
		t.Error("barrier cost not increasing with ranks")
	}
	// Allreduce is two tree traversals: double bcast for equal payload.
	ar, _ := n.CollectiveCost(mpi.Allreduce, 8, 1024)
	bc, _ := n.CollectiveCost(mpi.Bcast, 8, 1024)
	if math.Abs(ar-2*bc) > 1e-12 {
		t.Errorf("allreduce %g != 2×bcast %g", ar, bc)
	}
	// Single-rank collectives are free.
	if c, _ := n.CollectiveCost(mpi.Allreduce, 1, 1024); c != 0 {
		t.Errorf("1-rank collective cost %g", c)
	}
	// Large payloads switch to the bandwidth-optimal ring: for a big
	// allreduce over many ranks the ring must beat the tree estimate
	// 2·log2(p)·(hop+ser).
	const big = 8 << 20
	ringAR, err := n.CollectiveCost(mpi.Allreduce, 256, big)
	if err != nil {
		t.Fatal(err)
	}
	treeAR := 2 * 8 * (6e-6 + float64(big)/2e9) // 2·log2(256)·(hop+ser)
	if ringAR >= treeAR {
		t.Errorf("large allreduce %g not below tree estimate %g", ringAR, treeAR)
	}
	// Ring wire time approaches 2×serialization for large p.
	if lower := 2 * float64(big) / 2e9 * 0.9; ringAR < lower {
		t.Errorf("ring allreduce %g implausibly below bandwidth bound %g", ringAR, lower)
	}
	// Large bcast likewise beats the tree.
	ringBC, _ := n.CollectiveCost(mpi.Bcast, 256, big)
	treeBC := 8 * (6e-6 + float64(big)/2e9)
	if ringBC >= treeBC {
		t.Errorf("large bcast %g not below tree estimate %g", ringBC, treeBC)
	}
	// Small payloads stay on the tree (latency-optimal): cost scales with
	// log p, not p.
	small64, _ := n.CollectiveCost(mpi.Allreduce, 64, 64)
	small1024, _ := n.CollectiveCost(mpi.Allreduce, 1024, 64)
	if small1024 > small64*2 {
		t.Errorf("small allreduce scaling looks linear: %g vs %g", small64, small1024)
	}
	if _, err := n.CollectiveCost(mpi.Send, 4, 8); err == nil {
		t.Error("non-collective kind accepted")
	}
	if _, err := n.CollectiveCost(mpi.Barrier, 0, 0); err == nil {
		t.Error("zero ranks accepted")
	}
}

func TestReplayComputeOnly(t *testing.T) {
	res, err := replayBuild(4, func(b *mpi.Builder) { b.ComputeAll(1, 1.0).ComputeAll(2, 0.5) }, testNet(t), flatCost(2.0))
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	// Each rank: 2.0×1.0 + 2.0×0.5 = 3.0 s.
	if math.Abs(res.Runtime-3.0) > 1e-12 {
		t.Errorf("Runtime = %g, want 3.0", res.Runtime)
	}
	for r, ct := range res.ComputeTime {
		if math.Abs(ct-3.0) > 1e-12 {
			t.Errorf("rank %d compute time %g", r, ct)
		}
		if res.CommTime[r] != 0 {
			t.Errorf("rank %d comm time %g, want 0", r, res.CommTime[r])
		}
	}
}

func TestReplayPingMessage(t *testing.T) {
	net := testNet(t)
	res, err := replayBuild(2, func(b *mpi.Builder) { b.SendRecv(0, 1, 0, 2_000_000) }, net, flatCost(0))
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	// Receiver: arrival (o + L + bytes/BW) + recv overhead.
	want := 1e-6 + 5e-6 + 2e6/2e9 + 1e-6
	if math.Abs(res.RankEnd[1]-want) > 1e-12 {
		t.Errorf("receiver end = %g, want %g", res.RankEnd[1], want)
	}
	// Sender only pays overhead.
	if math.Abs(res.RankEnd[0]-1e-6) > 1e-15 {
		t.Errorf("sender end = %g, want 1 µs", res.RankEnd[0])
	}
	if res.Messages != 1 {
		t.Errorf("Messages = %d", res.Messages)
	}
}

func TestReplayRecvBeforeSendInProgramOrder(t *testing.T) {
	// Rank 1's recv appears before rank 1 ever could see rank 0's send if
	// replay were naive program-order; the engine must block and resume.
	prog := &mpi.Program{App: "x", Ranks: [][]mpi.Event{
		{{Kind: mpi.Compute, BlockID: 1, Share: 1}, {Kind: mpi.Send, Peer: 1, Tag: 0, Bytes: 8}},
		{{Kind: mpi.Recv, Peer: 0, Tag: 0, Bytes: 8}},
	}}
	res, err := replay(prog, testNet(t), flatCost(1.0))
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	// Receiver waits out the sender's 1 s compute.
	if res.RankEnd[1] < 1.0 {
		t.Errorf("receiver finished at %g before message could arrive", res.RankEnd[1])
	}
	if res.CommTime[1] < 1.0 {
		t.Errorf("receiver comm (wait) time %g", res.CommTime[1])
	}
}

func TestReplayCollectiveSynchronizes(t *testing.T) {
	// Rank 0 computes 5 s before the barrier; everyone leaves the barrier
	// after rank 0 arrives.
	prog := &mpi.Program{App: "x", Ranks: [][]mpi.Event{
		{{Kind: mpi.Compute, BlockID: 1, Share: 1}, {Kind: mpi.Barrier}},
		{{Kind: mpi.Barrier}},
		{{Kind: mpi.Barrier}},
	}}
	cost := func(rank int, blockID uint64, share float64) (float64, error) { return 5.0, nil }
	res, err := replay(prog, testNet(t), cost)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	for r := 0; r < 3; r++ {
		if res.RankEnd[r] < 5.0 {
			t.Errorf("rank %d left barrier at %g, before the laggard arrived", r, res.RankEnd[r])
		}
	}
	// Ranks 1 and 2 spent nearly all their time waiting.
	if res.CommTime[1] < 5.0 || res.CommTime[2] < 5.0 {
		t.Errorf("waiters' comm time = %g, %g", res.CommTime[1], res.CommTime[2])
	}
}

func TestReplayMultipleCollectives(t *testing.T) {
	res, err := replayBuild(4, func(b *mpi.Builder) {
		b.ComputeAll(1, 1).
			Allreduce(64).
			ComputeAll(1, 1).
			Collective(mpi.Barrier, 0, 0).
			ComputeAll(1, 1)
	}, testNet(t), flatCost(1.0))
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if res.Runtime < 3.0 {
		t.Errorf("Runtime = %g, want ≥ 3 s of compute", res.Runtime)
	}
	for r := range res.ComputeTime {
		if math.Abs(res.ComputeTime[r]-3.0) > 1e-9 {
			t.Errorf("rank %d compute = %g", r, res.ComputeTime[r])
		}
	}
}

func TestReplayMessageOrderFIFO(t *testing.T) {
	// Two messages on the same channel must be received in send order.
	prog := &mpi.Program{App: "x", Ranks: [][]mpi.Event{
		{
			{Kind: mpi.Send, Peer: 1, Tag: 0, Bytes: 1},
			{Kind: mpi.Compute, BlockID: 1, Share: 1},
			{Kind: mpi.Send, Peer: 1, Tag: 0, Bytes: 1_000_000_000},
		},
		{
			{Kind: mpi.Recv, Peer: 0, Tag: 0, Bytes: 1},
			{Kind: mpi.Recv, Peer: 0, Tag: 0, Bytes: 1_000_000_000},
		},
	}}
	res, err := replay(prog, testNet(t), flatCost(1.0))
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	// Second message is injected at t≈1s and takes 0.5 s serialization.
	if res.RankEnd[1] < 1.5 {
		t.Errorf("receiver end %g; big second message not accounted", res.RankEnd[1])
	}
}

func TestReplayErrors(t *testing.T) {
	compute := func(b *mpi.Builder) { b.ComputeAll(1, 1) }
	if _, err := replayBuild(2, compute, testNet(t), nil); err == nil {
		t.Error("nil cost accepted")
	}
	bad := func(rank int, blockID uint64, share float64) (float64, error) {
		return -1, nil
	}
	if _, err := replayBuild(2, compute, testNet(t), bad); err == nil {
		t.Error("negative cost accepted")
	}
	if _, err := replay(&mpi.Program{}, testNet(t), flatCost(1)); err == nil {
		t.Error("invalid program accepted")
	}
	// Mismatched collective kinds at the same occurrence.
	mismatch := &mpi.Program{App: "x", Ranks: [][]mpi.Event{
		{{Kind: mpi.Barrier}},
		{{Kind: mpi.Allreduce, Bytes: 8}},
	}}
	if _, err := replay(mismatch, testNet(t), flatCost(0)); err == nil {
		t.Error("mismatched collectives accepted")
	}
}

func TestReplayDeadlockDetected(t *testing.T) {
	// Cross receives with no sends executed first: the validator's
	// multiset check passes (sends exist later), but both ranks block on
	// recv before reaching their sends — a real deadlock under
	// blocking-receive semantics.
	prog := &mpi.Program{App: "dl", Ranks: [][]mpi.Event{
		{{Kind: mpi.Recv, Peer: 1, Tag: 0, Bytes: 8}, {Kind: mpi.Send, Peer: 1, Tag: 0, Bytes: 8}},
		{{Kind: mpi.Recv, Peer: 0, Tag: 0, Bytes: 8}, {Kind: mpi.Send, Peer: 0, Tag: 0, Bytes: 8}},
	}}
	if _, err := replay(prog, testNet(t), flatCost(0)); err == nil {
		t.Error("deadlock not detected")
	}
}

func TestReplayLargeHaloProgram(t *testing.T) {
	g, err := mpi.NewGrid3D(64)
	if err != nil {
		t.Fatal(err)
	}
	res, err := replayBuild(64, func(b *mpi.Builder) {
		for step := 0; step < 5; step++ {
			b.ComputeAll(1, 0.2).HaloExchange3D(g, 32<<10, step*10).Allreduce(8)
		}
	}, testNet(t), flatCost(0.1))
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	// Compute per rank: 5 × 0.1 × 0.2 = 0.1 s, plus communication.
	if res.Runtime <= 0.1 {
		t.Errorf("Runtime = %g, want > pure compute 0.1", res.Runtime)
	}
	for r := range res.ComputeTime {
		if math.Abs(res.ComputeTime[r]-0.1) > 1e-9 {
			t.Fatalf("rank %d compute %g", r, res.ComputeTime[r])
		}
	}
}

func TestReduceAndAllgatherCosts(t *testing.T) {
	n := testNet(t)
	// Reduce is one tree traversal: half an equal-payload small allreduce.
	red, err := n.CollectiveCost(mpi.Reduce, 8, 1024)
	if err != nil {
		t.Fatal(err)
	}
	ar, _ := n.CollectiveCost(mpi.Allreduce, 8, 1024)
	if math.Abs(red*2-ar) > 1e-12 {
		t.Errorf("reduce %g not half of small allreduce %g", red, ar)
	}
	// Allgather moves (p-1)× the per-rank payload: cost grows linearly
	// with rank count for fixed payload.
	ag8, _ := n.CollectiveCost(mpi.Allgather, 8, 4096)
	ag64, _ := n.CollectiveCost(mpi.Allgather, 64, 4096)
	if ag64 < ag8*7 {
		t.Errorf("allgather not scaling linearly: %g vs %g", ag8, ag64)
	}
	// Replay accepts the new collectives.
	if _, err := replayBuild(4, func(b *mpi.Builder) {
		b.ComputeAll(1, 1).
			Collective(mpi.Reduce, 0, 64).
			Collective(mpi.Allgather, 0, 64)
	}, n, flatCost(0.01)); err != nil {
		t.Fatalf("Replay with reduce/allgather: %v", err)
	}
}

func TestReplayTracedTimeline(t *testing.T) {
	sched, err := CompileBuild("tl", 2, func(b *mpi.Builder) {
		b.ComputeAll(7, 1.0).
			SendRecv(0, 1, 0, 1_000_000).
			Allreduce(64)
	})
	if err != nil {
		t.Fatal(err)
	}
	var tl Timeline
	res, err := sched.Replay(context.Background(), testNet(t), flatCost(0.5), &tl)
	if err != nil {
		t.Fatalf("Replay with timeline: %v", err)
	}
	if len(tl.Segments) == 0 {
		t.Fatal("empty timeline")
	}
	kinds := map[string]int{}
	for _, seg := range tl.Segments {
		kinds[seg.Kind]++
		if seg.End <= seg.Start {
			t.Errorf("empty segment recorded: %+v", seg)
		}
		if seg.End > res.Runtime+1e-12 {
			t.Errorf("segment beyond runtime: %+v", seg)
		}
		if seg.Rank < 0 || seg.Rank >= 2 {
			t.Errorf("bad rank: %+v", seg)
		}
	}
	if kinds["compute"] != 2 {
		t.Errorf("compute segments: %d, want 2", kinds["compute"])
	}
	if kinds["recv"] != 1 {
		t.Errorf("recv segments: %d, want 1", kinds["recv"])
	}
	if kinds["allreduce"] == 0 {
		t.Error("no allreduce segments")
	}
	// Compute segments carry their block IDs and sum to the compute time.
	var computeSum float64
	for _, seg := range tl.Segments {
		if seg.Kind == "compute" {
			if seg.BlockID != 7 {
				t.Errorf("compute segment without block id: %+v", seg)
			}
			computeSum += seg.End - seg.Start
		}
	}
	if math.Abs(computeSum-res.ComputeTime[0]-res.ComputeTime[1]) > 1e-9 {
		t.Errorf("timeline compute %g != accounted %g",
			computeSum, res.ComputeTime[0]+res.ComputeTime[1])
	}
	// Per-rank segments are non-overlapping and ordered.
	for r := 0; r < 2; r++ {
		last := -1.0
		for _, seg := range tl.Segments {
			if seg.Rank != r {
				continue
			}
			if seg.Start < last-1e-12 {
				t.Errorf("rank %d segments overlap at %g", r, seg.Start)
			}
			last = seg.End
		}
	}
	// An untraced replay matches the traced run.
	plain, err := sched.Replay(context.Background(), testNet(t), flatCost(0.5), nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Runtime != res.Runtime {
		t.Errorf("traced replay diverged: %g vs %g", res.Runtime, plain.Runtime)
	}
}

func TestNICInjectionSerializes(t *testing.T) {
	// One rank firing two large messages back-to-back: the second message's
	// arrival must wait for the first to clear the sender's NIC.
	const big = 1_000_000_000 // 0.5 s serialization at 2 GB/s
	prog := &mpi.Program{App: "nic", Ranks: [][]mpi.Event{
		{
			{Kind: mpi.Send, Peer: 1, Tag: 0, Bytes: big},
			{Kind: mpi.Send, Peer: 2, Tag: 0, Bytes: big},
		},
		{{Kind: mpi.Recv, Peer: 0, Tag: 0, Bytes: big}},
		{{Kind: mpi.Recv, Peer: 0, Tag: 0, Bytes: big}},
	}}
	res, err := replay(prog, testNet(t), flatCost(0))
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	// Receiver 1 gets its message after ~0.5 s, receiver 2 only after ~1 s
	// (the two injections serialize on rank 0's NIC).
	if res.RankEnd[1] < 0.5 || res.RankEnd[1] > 0.51 {
		t.Errorf("first receiver end %.4f, want ≈0.5", res.RankEnd[1])
	}
	if res.RankEnd[2] < 1.0 || res.RankEnd[2] > 1.01 {
		t.Errorf("second receiver end %.4f, want ≈1.0 (NIC serialization)", res.RankEnd[2])
	}
	// Sends from DIFFERENT ranks do not serialize against each other.
	prog2 := &mpi.Program{App: "nic2", Ranks: [][]mpi.Event{
		{{Kind: mpi.Send, Peer: 2, Tag: 0, Bytes: big}},
		{{Kind: mpi.Send, Peer: 2, Tag: 1, Bytes: big}},
		{
			{Kind: mpi.Recv, Peer: 0, Tag: 0, Bytes: big},
			{Kind: mpi.Recv, Peer: 1, Tag: 1, Bytes: big},
		},
	}}
	res2, err := replay(prog2, testNet(t), flatCost(0))
	if err != nil {
		t.Fatal(err)
	}
	if res2.RankEnd[2] > 0.52 {
		t.Errorf("independent senders serialized: receiver end %.4f", res2.RankEnd[2])
	}
}
