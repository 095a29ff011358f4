package psins

import (
	"context"
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
	allocs := func(ranks int) float64 {
		prog, err := app.Program(ranks)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := Compile(prog)
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
