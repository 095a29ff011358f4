// Specfem3d reproduces the paper's SPECFEM3D_GLOBE experiment at full
// scale: signatures collected at 96, 384 and 1536 cores are extrapolated to
// 6144 cores, and the prediction made from the extrapolated trace is
// compared against the prediction made from an actually-collected 6144-core
// trace and the measured runtime (Table I, rows 1-2), including the
// per-element accuracy audit of the influential blocks (Section IV).
//
// Run with: go run ./examples/specfem3d
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
	app, err := tracex.LoadApp("specfem3d")
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

	inputCounts := []int{96, 384, 1536}
	const targetCount = 6144
	opt := tracex.CollectOptions{}

	fmt.Printf("collecting SPECFEM3D signatures at %v cores on %s...\n", inputCounts, target.Name)
	inputs, err := eng.CollectInputs(ctx, app, inputCounts, target, opt)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("extrapolating to %d cores...\n", targetCount)
	res, err := eng.Extrapolate(ctx, inputs, targetCount, tracex.ExtrapOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("selected canonical forms per block (mem_ops element):")
	for _, f := range res.Fits {
		if f.Element == "mem_ops" {
			fmt.Printf("  block %-2d %-12s → %.4g refs\n", f.BlockID, f.Form, f.Extrapolated)
		}
	}

	fmt.Printf("collecting the ground-truth %d-core signature...\n", targetCount)
	collected, err := eng.CollectSignature(ctx, app, targetCount, target, opt)
	if err != nil {
		log.Fatal(err)
	}

	// Section IV audit: every element of every influential block.
	errs, err := tracex.CompareTraces(&res.Signature.Traces[0], collected.DominantTrace())
	if err != nil {
		log.Fatal(err)
	}
	var maxErr float64
	var worst string
	for _, e := range errs {
		if e.Influential && e.AbsRelErr > maxErr {
			maxErr = e.AbsRelErr
			worst = e.Func + "/" + e.Element
		}
	}
	fmt.Printf("influential-element audit: max error %.1f%% (%s) — paper claims <20%%\n",
		100*maxErr, worst)

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

	fmt.Printf("\nTable I (SPECFEM3D rows):\n")
	fmt.Printf("%-12s %6s %-8s %12s %8s\n", "Application", "Cores", "Trace", "Predicted(s)", "%Error")
	for _, row := range []struct {
		kind string
		t    float64
	}{{"Extrap.", predExtrap.Runtime}, {"Coll.", predColl.Runtime}} {
		fmt.Printf("%-12s %6d %-8s %12.1f %7.1f%%\n", "SPECFEM3D", targetCount, row.kind,
			row.t, 100*math.Abs(row.t-measured.Runtime)/measured.Runtime)
	}
	fmt.Printf("measured runtime: %.1f s\n", measured.Runtime)
}
