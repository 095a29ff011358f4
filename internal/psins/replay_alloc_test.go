package psins

import (
	"context"
	"runtime"
	"testing"

	"tracex/internal/mpi"
	"tracex/internal/synthapp"
)

// TestReplayAllocsIndependentOfSize: a replay allocates its per-rank arrays
// up front, so replaying stencil3d at 1024 ranks makes exactly as many
// allocations as at 64, and a description of ten timesteps of every
// pattern as many as one of two — none per event, message or pattern call.
func TestReplayAllocsIndependentOfSize(t *testing.T) {
	app, err := synthapp.ByName("stencil3d")
	if err != nil {
		t.Fatal(err)
	}
	net := testNet(t)
	// A 1024-rank replay can start the process's first GC cycle, and the
	// runtime then allocates its background mark workers inside the
	// measured window, charging the replay an object it never made. Run
	// that first cycle now, so the count is exact under any build mode
	// and test order.
	runtime.GC()
	cost := flatCost(1e-3)
	allocs := func(ranks int, build func(*mpi.Builder)) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Replay(context.Background(), ranks, build, net, cost, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	proxy := func(ranks int) float64 {
		build, err := app.Build(ranks)
		if err != nil {
			t.Fatal(err)
		}
		return allocs(ranks, build)
	}
	if small, large := proxy(64), proxy(1024); small != large {
		t.Errorf("stencil3d replay allocations: %.0f at 64 ranks, %.0f at 1024", small, large)
	}
	// steps timesteps of every pattern on 64 ranks.
	steps := func(steps int) float64 {
		g, err := mpi.NewGrid3D(64)
		if err != nil {
			t.Fatal(err)
		}
		return allocs(64, func(b *mpi.Builder) {
			for s := 0; s < steps; s++ {
				b.ComputeAll(1, 1/float64(steps)).
					Compute(s, 2, 0.5).
					SendRecv(s, s+1, s, 64).
					HaloExchange3D(g, 4096, 10*s).
					HaloExchange3DNonblocking(g, 4096, 10*s+6).
					Allreduce(8).
					Collective(mpi.Bcast, s, 1<<20)
			}
		})
	}
	if few, many := steps(2), steps(10); few != many {
		t.Errorf("replay allocations: %.0f for 2 steps, %.0f for 10", few, many)
	}
}
