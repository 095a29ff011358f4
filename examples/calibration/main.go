// Calibration demonstrates the machine-profile inverse problem: given block
// timings observed on a real system (here: the detailed simulation of the
// Blue Waters model), recover an uncertain machine parameter — the
// memory-level parallelism — starting from a deliberately wrong prior. This
// is the fitted-memory-model workflow of the paper's reference [27] (Tikir
// et al.), realized with deterministic coordinate descent.
//
// Run with: go run ./examples/calibration
package main

import (
	"context"
	"fmt"
	"log"

	"tracex"
)

func main() {
	eng := tracex.NewEngine()
	defer eng.Close()
	truth, err := tracex.LoadMachine("bluewaters")
	if err != nil {
		log.Fatal(err)
	}
	app, err := tracex.LoadApp("uh3d")
	if err != nil {
		log.Fatal(err)
	}

	// "Measure" block timings on the true machine: collect signatures and
	// time each block with the detailed model. In a real deployment these
	// observations come from hardware counters + wall clocks.
	fmt.Println("gathering observed block timings on the true machine...")
	obs, err := observeBlocks(eng, app, truth, []int{1024, 2048, 4096})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d observations\n", len(obs))

	// A procurement-time machine description with uncertain MLP and
	// sustained bandwidth.
	prior := truth
	prior.MLP = 2
	prior.MemBandwidthGBs = 16

	res, err := tracex.CalibrateMachine(prior, obs,
		[]tracex.MachineParameter{tracex.ParamMLP, tracex.ParamMemBandwidth}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntiming-model error: %.1f%% before → %.2f%% after calibration\n",
		100*res.Before, 100*res.After)
	fmt.Printf("recovered MLP:        %.2f (true %.1f)\n", res.Config.MLP, truth.MLP)
	fmt.Printf("recovered bandwidth:  %.2f GB/s (true %.1f)\n",
		res.Config.MemBandwidthGBs, truth.MemBandwidthGBs)
	fmt.Printf("calibration sweeps:   %d\n", res.Iterations)
	fmt.Println()
	fmt.Println("note the identifiability lesson: UH3D's latency-bound random")
	fmt.Println("gathers pin down MLP precisely, but they never saturate the")
	fmt.Println("memory bus, so the bandwidth parameter is unidentifiable from")
	fmt.Println("these observations and stays at its prior — calibrate each")
	fmt.Println("parameter with a workload that actually exercises it.")
}

// observeBlocks produces (counters, seconds) pairs for every block of the
// application at the given core counts on the true machine.
func observeBlocks(eng *tracex.Engine, app *tracex.App, truth tracex.MachineConfig, counts []int) ([]tracex.Observation, error) {
	var obs []tracex.Observation
	opt := tracex.CollectOptions{Sampling: tracex.FixedSampling(150_000, 0)}
	for _, p := range counts {
		blockObs, err := eng.ObserveBlocks(context.Background(), app, p, truth, opt)
		if err != nil {
			return nil, err
		}
		obs = append(obs, blockObs...)
	}
	return obs, nil
}
