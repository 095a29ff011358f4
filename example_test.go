package tracex_test

import (
	"context"
	"fmt"
	"log"

	"tracex"
)

// Example demonstrates the full trace-extrapolation pipeline: profile the
// target machine, collect signatures at three small core counts,
// extrapolate to a count that was never traced, and predict its runtime.
func Example() {
	ctx := context.Background()
	eng := tracex.NewEngine()
	defer eng.Close()
	app, err := tracex.LoadApp("stencil3d")
	if err != nil {
		log.Fatal(err)
	}
	target, err := tracex.LoadMachine("bluewaters")
	if err != nil {
		log.Fatal(err)
	}
	prof, err := eng.Profile(ctx, target) // MultiMAPS sweep
	if err != nil {
		log.Fatal(err)
	}
	inputs, err := eng.CollectInputs(ctx, app, []int{64, 128, 256}, target,
		tracex.CollectOptions{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Extrapolate(ctx, inputs, 512, tracex.ExtrapOptions{})
	if err != nil {
		log.Fatal(err)
	}
	pred, err := eng.Predict(ctx,
		tracex.PredictRequest{Signature: res.Signature, Profile: prof, App: app})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("predicted %d-core runtime: %.1f s", pred.CoreCount, pred.Runtime)
}

// ExampleEngine_Extrapolate shows form selection per feature-vector
// element.
func ExampleEngine_Extrapolate() {
	ctx := context.Background()
	eng := tracex.NewEngine()
	defer eng.Close()
	app, _ := tracex.LoadApp("uh3d")
	target, _ := tracex.LoadMachine("bluewaters")
	inputs, err := eng.CollectInputs(ctx, app, []int{1024, 2048, 4096}, target,
		tracex.CollectOptions{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Extrapolate(ctx, inputs, 8192, tracex.ExtrapOptions{
		// The paper's future-work extension, guarded by cross-validation:
		Forms:         tracex.ExtendedForms(),
		CrossValidate: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range res.Fits {
		if f.Element == "mem_ops" {
			fmt.Printf("block %d memory ops follow a %s law\n", f.BlockID, f.Form)
		}
	}
}

// ExampleEngine_Measure runs the detailed execution simulation — the
// stand-in for timing a real run — to validate a prediction.
func ExampleEngine_Measure() {
	eng := tracex.NewEngine()
	defer eng.Close()
	app, _ := tracex.LoadApp("cgsolve")
	target, _ := tracex.LoadMachine("sandybridge")
	measured, err := eng.Measure(context.Background(), app, 256, target, tracex.CollectOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("measured: %.2f s (compute %.2f s, comm %.2f s)",
		measured.Runtime, measured.ComputeSeconds, measured.CommSeconds)
}

// ExampleDVFSSweep prices energy at scale from an extrapolated trace and
// finds the energy-optimal core frequency.
func ExampleDVFSSweep() {
	ctx := context.Background()
	eng := tracex.NewEngine()
	defer eng.Close()
	app, _ := tracex.LoadApp("uh3d")
	target, _ := tracex.LoadMachine("bluewaters")
	prof, _ := eng.Profile(ctx, target)
	inputs, err := eng.CollectInputs(ctx, app, []int{1024, 2048, 4096}, target,
		tracex.CollectOptions{})
	if err != nil {
		log.Fatal(err)
	}
	res, _ := eng.Extrapolate(ctx, inputs, 8192, tracex.ExtrapOptions{})
	model := tracex.DefaultEnergyModel(target)
	pts, err := tracex.DVFSSweep(res.Signature, prof, model,
		[]float64{0.6, 0.8, 1.0, 1.2})
	if err != nil {
		log.Fatal(err)
	}
	minEnergy, _ := tracex.OptimalFrequency(pts)
	fmt.Printf("energy-optimal frequency: %.1f×nominal", minEnergy.Scale)
}
