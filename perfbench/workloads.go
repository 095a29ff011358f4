package main

import "context"

// Every workload predicts the same application on the same machine.
const (
	benchApp     = "stencil3d"
	benchMachine = "bluewaters"
	// callers is the closed loop's concurrency on the HTTP workloads: one
	// caller per vCPU of the 2-vCPU reference host keeps both busy without
	// queueing behind the daemon's admission control.
	callers = 2
	// seedSampling keeps seeding collections cheap; the HTTP workloads
	// measure serving, not collection.
	seedSampling = "fixed:20000,warm=20000"
)

// warmCores are predict-warm's 16 identities: a band around 1024 ranks
// narrow enough that every replay costs within a few percent of the others.
func warmCores() []int {
	out := make([]int, 16)
	for k := range out {
		out[k] = 1008 + 2*k
	}
	return out
}

// tierCores are serve-tiers' 96 identities, 8 to 103 ranks: more than the
// engine's 64-entry signature cache holds, so about a third of predicts
// reach the disk tier.
func tierCores() []int {
	out := make([]int, 96)
	for k := range out {
		out[k] = 8 + k
	}
	return out
}

var workloads = map[string]*workload{
	"pipeline-cold": {
		callers:      1,
		tailPct:      80,
		minOpsPerSec: 5,
		digestOps:    16,
		rootLayer:    "orchestration",
		opAt:         func(seed int64, phase, _, j int) op { return studyOp(seed, phase, j) },
		setup:        setupStudy,
	},
	"predict-warm": {
		callers:      callers,
		tailPct:      95,
		minOpsPerSec: 20,
		digestOps:    128,
		rootLayer:    "server",
		opAt: func(seed int64, phase, c, j int) op {
			return identityOp(seed, phase, callers, 16, c, j, predictOnly)
		},
		setup: func(ctx context.Context, run runConfig) (instance, error) {
			return setupServe(ctx, run, serveConfig{cores: warmCores()})
		},
	},
	"serve-tiers": {
		callers:      callers,
		tailPct:      95,
		minOpsPerSec: 400,
		digestOps:    1024,
		rootLayer:    "server",
		opAt: func(seed int64, phase, c, j int) op {
			return identityOp(seed, phase, callers, 96, c, j, serveMix)
		},
		setup: func(ctx context.Context, run runConfig) (instance, error) {
			return setupServe(ctx, run, serveConfig{cores: tierCores(), store: true})
		},
	},
}
