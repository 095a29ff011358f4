// Quickstart walks the whole trace-extrapolation pipeline on a small
// stencil application at laptop-friendly scale:
//
//  1. build a machine profile with the MultiMAPS benchmark,
//  2. collect application signatures at three small core counts
//     (instrumentation emulation + on-the-fly cache simulation, Figure 2),
//  3. extrapolate the dominant task's trace to a larger core count that was
//     never traced (Section IV),
//  4. predict the large-scale runtime from both the extrapolated and an
//     actually-collected trace (Table I's comparison), and
//  5. check both against the detailed execution simulation.
//
// Everything runs through a tracex.Engine: the three input collections fan
// out across the worker pool, repeated requests are served from the
// engine's caches, and Ctrl-C cancels the simulations promptly.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"syscall"

	"tracex"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	eng := tracex.NewEngine()
	defer eng.Close()
	// A 200k-reference sample per block keeps every collection quick.
	opt := tracex.CollectOptions{Sampling: tracex.FixedSampling(200_000, 0)}

	app, err := tracex.LoadApp("stencil3d")
	if err != nil {
		log.Fatal(err)
	}
	target, err := tracex.LoadMachine("bluewaters")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== 1. probing the target machine with MultiMAPS")
	prof, err := eng.Profile(ctx, target)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   %d bandwidth surface points for %s\n", len(prof.Surface), target.Name)

	fmt.Println("== 2. collecting signatures at 64, 128 and 256 cores")
	inputs, err := eng.CollectInputs(ctx, app, []int{64, 128, 256}, target, opt)
	if err != nil {
		log.Fatal(err)
	}
	for _, sig := range inputs {
		dom := sig.DominantTrace()
		fmt.Printf("   %4d cores: %d blocks on dominant rank %d\n",
			sig.CoreCount, len(dom.Blocks), dom.Rank)
	}

	fmt.Println("== 3. extrapolating to 512 cores")
	res, err := eng.Extrapolate(ctx, inputs, 512, tracex.ExtrapOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range res.Fits {
		if f.Element == "mem_ops" {
			fmt.Printf("   block %d mem_ops: %s fit → %.4g\n", f.BlockID, f.Form, f.Extrapolated)
		}
	}

	fmt.Println("== 4. predicting the 512-core runtime")
	collected, err := eng.CollectSignature(ctx, app, 512, target, opt)
	if err != nil {
		log.Fatal(err)
	}
	preds, err := eng.PredictMany(ctx, []tracex.PredictRequest{
		{Signature: res.Signature, App: app, Profile: prof},
		{Signature: collected, App: app, Profile: prof},
	})
	if err != nil {
		log.Fatal(err)
	}
	predExtrap, predColl := preds[0], preds[1]

	fmt.Println("== 5. ground truth from the detailed execution simulation")
	measured, err := eng.Measure(ctx, app, 512, target, opt)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-28s %10s %10s\n", "", "runtime(s)", "error")
	pct := func(x float64) string {
		return fmt.Sprintf("%.1f%%", 100*math.Abs(x-measured.Runtime)/measured.Runtime)
	}
	fmt.Printf("%-28s %10.3f %10s\n", "prediction (extrapolated)", predExtrap.Runtime, pct(predExtrap.Runtime))
	fmt.Printf("%-28s %10.3f %10s\n", "prediction (collected)", predColl.Runtime, pct(predColl.Runtime))
	fmt.Printf("%-28s %10.3f %10s\n", "measured (detailed sim)", measured.Runtime, "-")
}
