package tracex

import (
	"context"
	"fmt"

	"tracex/internal/cache"
	"tracex/internal/memsim"
	"tracex/internal/pebil"
	"tracex/internal/psins"
)

// measure is the detailed execution simulation behind Engine.Measure: the
// reproduction's stand-in for actually running and timing the application
// on real hardware (the paper's "real measured runtime"). Instead of
// interpolating a benchmark-derived bandwidth surface like the convolution,
// it prices every basic block directly from its cache-simulator accounting
// with the cycle-level memory timing model, then replays the full MPI event
// trace. The counters come from the engine's shared collector arena.
func measure(ctx context.Context, col *pebil.Collector, app *App, cores int, target MachineConfig, opt CollectOptions) (*Prediction, error) {
	counters, err := col.Counters(ctx, app, cores, target, opt)
	if err != nil {
		return nil, err
	}
	model, err := memsim.New(target)
	if err != nil {
		return nil, err
	}
	// Per-block seconds for the dominant rank, priced from the sampled
	// counters scaled to the block's full reference count. The snapshots are
	// priced in one batch, then scaled per block.
	snaps := make([]cache.Counters, len(counters))
	for i := range counters {
		if counters[i].Counters.Refs == 0 {
			return nil, fmt.Errorf("tracex: block %s has an empty sample", counters[i].Spec.Func)
		}
		snaps[i] = counters[i].Counters
	}
	blockCycles, err := model.BlockCycles(snaps)
	if err != nil {
		return nil, err
	}
	blockSeconds := make(map[uint64]float64, len(counters))
	var memTotal, fpTotal float64
	for i := range counters {
		bc := &counters[i]
		scale := bc.Refs / float64(bc.Counters.Refs)
		memCycles := blockCycles[i] * scale
		fpCycles := model.FPCycles(bc.Refs*bc.Spec.FPPerRef, bc.Spec.ILP)
		longer, shorter := memCycles, fpCycles
		if shorter > longer {
			longer, shorter = shorter, longer
		}
		cycles := longer + (1-psins.OverlapFactor)*shorter
		blockSeconds[bc.Spec.ID] = model.Seconds(cycles)
		memTotal += model.Seconds(memCycles)
		fpTotal += model.Seconds(fpCycles)
	}
	build, err := app.Build(cores)
	if err != nil {
		return nil, err
	}
	sched, err := psins.CompileBuild(app.Name(), cores, build)
	if err != nil {
		return nil, err
	}
	net, err := psins.NewNetwork(target.Network)
	if err != nil {
		return nil, err
	}
	cost := func(rank int, blockID uint64, share float64) (float64, error) {
		t, ok := blockSeconds[blockID]
		if !ok {
			return 0, fmt.Errorf("tracex: event references unknown block %d", blockID)
		}
		return t * share * app.LoadFactor(rank), nil
	}
	res, err := sched.Replay(ctx, net, cost, nil)
	if err != nil {
		return nil, err
	}
	return &Prediction{
		App:            app.Name(),
		CoreCount:      cores,
		Machine:        target.Name,
		Runtime:        res.Runtime,
		ComputeSeconds: res.ComputeTime[0],
		CommSeconds:    res.CommTime[0],
		MemSeconds:     memTotal,
		FPSeconds:      fpTotal,
	}, nil
}
