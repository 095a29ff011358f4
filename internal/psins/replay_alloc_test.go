package psins

import (
	"context"
	"runtime"
	"testing"

	"tracex/internal/synthapp"
)

// TestReplayAllocsIndependentOfSize: a compiled replay allocates its
// per-rank and per-slot arrays up front, so replaying stencil3d at 1024
// ranks makes exactly as many allocations as at 64 — none per event or per
// message.
func TestReplayAllocsIndependentOfSize(t *testing.T) {
	app, err := synthapp.ByName("stencil3d")
	if err != nil {
		t.Fatal(err)
	}
	net := testNet(t)
	// The 1024-rank compile can start the process's first GC cycle, and
	// the runtime then allocates its background mark workers inside the
	// measured window, charging the replay an object it never made. Run
	// that first cycle now, so the count is exact under any build mode
	// and test order.
	runtime.GC()
	allocs := func(ranks int) float64 {
		build, err := app.Build(ranks)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := CompileBuild(app.Name(), ranks, build)
		if err != nil {
			t.Fatal(err)
		}
		cost := flatCost(1e-3)
		return testing.AllocsPerRun(5, func() {
			if _, err := sched.Replay(context.Background(), net, cost, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(64), allocs(1024); small != large {
		t.Errorf("replay allocations: %.0f at 64 ranks, %.0f at 1024", small, large)
	}
}
