// Clustering demonstrates the paper's Future Work (§VI) extension: instead
// of extrapolating only the slowest MPI task's trace, cluster the tasks by
// their feature vectors (k-means), pick a "centroid" representative per
// cluster, and extrapolate each representative — giving per-cluster trace
// files at the target scale.
//
// Run with: go run ./examples/clustering
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
	opt := tracex.CollectOptions{Sampling: tracex.FixedSampling(150_000, 0)}

	// Collect signatures with one trace per load class at each input count.
	counts := []int{1024, 2048, 4096}
	fmt.Printf("collecting UH3D signatures (%d load classes) at %v cores...\n",
		app.NumClasses(), counts)
	inputs, err := eng.CollectInputs(ctx, app, counts, target, opt)
	if err != nil {
		log.Fatal(err)
	}

	// Cluster the ranks of the smallest run.
	k := app.NumClasses()
	rc, err := tracex.ClusterRanks(inputs[0], k, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("k-means over %d traced ranks found %d clusters (inertia %.4g, %d iterations):\n",
		len(inputs[0].Traces), k, rc.KMeans.Inertia, rc.KMeans.Iterations)
	for c, ranks := range rc.Clusters {
		fmt.Printf("  cluster %d: ranks %v, representative %d\n", c, ranks, rc.Representative[c])
	}

	// Extrapolate each cluster representative's trace series to 8192 cores.
	const targetCount = 8192
	fmt.Printf("\nextrapolating each centroid trace to %d cores:\n", targetCount)
	for c, rep := range rc.Representative {
		sub := make([]*tracex.Signature, len(inputs))
		for i, sig := range inputs {
			for j := range sig.Traces {
				if sig.Traces[j].Rank == rep {
					sub[i] = &tracex.Signature{
						App:       sig.App,
						CoreCount: sig.CoreCount,
						Machine:   sig.Machine,
						Traces:    []tracex.Trace{sig.Traces[j]},
					}
				}
			}
		}
		res, err := eng.Extrapolate(ctx, sub, targetCount, tracex.ExtrapOptions{})
		if err != nil {
			log.Fatal(err)
		}
		tr := &res.Signature.Traces[0]
		fmt.Printf("  cluster %d (rank %d): %d blocks, %.4g total memory ops\n",
			c, rep, len(tr.Blocks), tr.TotalMemOps())
	}
	fmt.Println("\neach cluster now has its own target-scale trace file, replacing")
	fmt.Println("the single slowest-task vector the base methodology scales from.")
}
