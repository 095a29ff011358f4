// Uh3d reproduces the paper's UH3D magnetosphere-code experiment at full
// scale: signatures collected at 1024, 2048 and 4096 cores are extrapolated
// to 8192 cores (Table I, rows 3-4), and the extrapolated trace is then used
// the way the paper's Table II uses it — to read off how the target system's
// cache hit rates evolve for a single basic block as the application strong
// scales, without ever tracing the largest run.
//
// Run with: go run ./examples/uh3d
package main

import (
	"context"
	"fmt"
	"log"
	"math"

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

	inputCounts := []int{1024, 2048, 4096}
	const targetCount = 8192
	opt := tracex.CollectOptions{}

	fmt.Printf("collecting UH3D signatures at %v cores on %s...\n", inputCounts, target.Name)
	inputs, err := eng.CollectInputs(ctx, app, inputCounts, target, opt)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("extrapolating to %d cores...\n", targetCount)
	res, err := eng.Extrapolate(ctx, inputs, targetCount, tracex.ExtrapOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Table II: the field_update block's hit rates across core counts —
	// the 8192-core row comes from the *extrapolated* trace.
	fmt.Println("\nTable II: field_update cache hit rates on the target system")
	fmt.Printf("%10s %8s %8s %8s %s\n", "Core Count", "L1 HR", "L2 HR", "L3 HR", "source")
	printRow := func(cores int, hr []float64, src string) {
		fmt.Printf("%10d %7.1f%% %7.1f%% %7.1f%% %s\n",
			cores, 100*hr[0], 100*hr[1], 100*hr[2], src)
	}
	const fieldUpdateID = 12
	for _, sig := range inputs {
		blk := sig.DominantTrace().BlockByID()[fieldUpdateID]
		printRow(sig.CoreCount, blk.FV.HitRates, "collected")
	}
	extrapBlk := res.Signature.Traces[0].BlockByID()[fieldUpdateID]
	printRow(targetCount, extrapBlk.FV.HitRates, "extrapolated")

	// Table I rows: predictions from both traces against measured.
	collected, err := eng.CollectSignature(ctx, app, targetCount, target, opt)
	if err != nil {
		log.Fatal(err)
	}
	predExtrap, err := eng.Predict(ctx, tracex.PredictRequest{Signature: res.Signature, Profile: prof, App: app})
	if err != nil {
		log.Fatal(err)
	}
	predColl, err := eng.Predict(ctx, tracex.PredictRequest{Signature: collected, Profile: prof, App: app})
	if err != nil {
		log.Fatal(err)
	}
	measured, err := eng.Measure(ctx, app, targetCount, target, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nTable I (UH3D rows):\n")
	fmt.Printf("%-12s %6s %-8s %12s %8s\n", "Application", "Cores", "Trace", "Predicted(s)", "%Error")
	for _, row := range []struct {
		kind string
		t    float64
	}{{"Extrap.", predExtrap.Runtime}, {"Coll.", predColl.Runtime}} {
		fmt.Printf("%-12s %6d %-8s %12.1f %7.1f%%\n", "UH3D", targetCount, row.kind,
			row.t, 100*math.Abs(row.t-measured.Runtime)/measured.Runtime)
	}
	fmt.Printf("measured runtime: %.1f s\n", measured.Runtime)
}
