// Energy demonstrates the methodology's second motivation: the feature
// vector captures what matters "for both performance and energy". An
// extrapolated 8192-core trace — never collected — prices the energy of the
// dominant task at scale and drives a DVFS sweep that finds the
// energy-optimal core frequency for the (memory-bound) workload, following
// the PMaC group's frequency-scaling work the paper builds on.
//
// Run with: go run ./examples/energy
package main

import (
	"context"
	"fmt"
	"log"

	"tracex"
)

func main() {
	ctx := context.Background()
	eng := tracex.NewEngine()
	defer eng.Close()
	app, err := tracex.LoadApp("uh3d")
	if err != nil {
		log.Fatal(err)
	}
	target, err := tracex.LoadMachine("bluewaters")
	if err != nil {
		log.Fatal(err)
	}
	prof, err := eng.Profile(ctx, target)
	if err != nil {
		log.Fatal(err)
	}
	opt := tracex.CollectOptions{Sampling: tracex.FixedSampling(200_000, 0)}

	fmt.Println("collecting UH3D at 1024/2048/4096 cores and extrapolating to 8192...")
	inputs, err := eng.CollectInputs(ctx, app, []int{1024, 2048, 4096}, target, opt)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Extrapolate(ctx, inputs, 8192, tracex.ExtrapOptions{})
	if err != nil {
		log.Fatal(err)
	}

	model := tracex.DefaultEnergyModel(target)
	rep, err := tracex.EstimateEnergy(res.Signature, prof, model)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndominant-task energy at 8192 cores (from the extrapolated trace):\n")
	fmt.Printf("  computation %.1f s, %.1f J, average %.1f W/core\n",
		rep.Seconds, rep.Joules, rep.AvgWatts)
	fmt.Println("  per block:")
	for _, b := range rep.Blocks {
		fmt.Printf("    block %-3d %8.2f s %10.1f J %6.1f W\n", b.BlockID, b.Seconds, b.Joules, b.Watts)
	}

	scales := []float64{0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2}
	pts, err := tracex.DVFSSweep(res.Signature, prof, model, scales)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDVFS sweep (relative frequency → time, energy, EDP):\n")
	fmt.Printf("%8s %10s %12s %14s\n", "f/f₀", "time (s)", "energy (J)", "EDP (J·s)")
	for _, p := range pts {
		fmt.Printf("%8.2f %10.1f %12.1f %14.1f\n", p.Scale, p.Seconds, p.Joules, p.EDP)
	}
	minE, minEDP := tracex.OptimalFrequency(pts)
	fmt.Printf("\nenergy-optimal frequency: %.2f×nominal (%.1f J)\n", minE.Scale, minE.Joules)
	fmt.Printf("EDP-optimal frequency:    %.2f×nominal (%.1f J·s)\n", minEDP.Scale, minEDP.EDP)
}
