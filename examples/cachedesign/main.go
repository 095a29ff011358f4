// Cachedesign reproduces the paper's Table III use case: exploring the
// optimal cache structure for an application without the candidate system
// existing. Where the original flow re-simulated the application against
// every candidate hierarchy, this version collects ONE machine-independent
// reuse-distance signature per core count and sweeps the candidate
// geometries analytically: each candidate's per-block hit rates are derived
// from the same stored stack-distance histograms in microseconds, so adding
// an L1 size to the sweep costs no new simulation at all.
//
// The SPECFEM3D lookup-table block's residency flips between the small and
// large L1 candidates while staying flat in core count — exactly the signal
// a system architect would use to size the L1.
//
// Run with: go run ./examples/cachedesign
package main

import (
	"context"
	"fmt"
	"log"
	"time"

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
	base, err := tracex.LoadMachine("bluewaters")
	if err != nil {
		log.Fatal(err)
	}

	// The candidate hierarchies: eight L1 sizes spanning the Table III pair
	// (12 KB and 56 KB among them). Everything else is held at the baseline.
	l1KBs := []int{8, 12, 16, 24, 32, 48, 56, 64}
	candidates := make([]tracex.MachineConfig, len(l1KBs))
	for i, kb := range l1KBs {
		c := base
		c.Name = fmt.Sprintf("candidate-%dKB-L1", kb)
		c.Caches = append([]tracex.CacheLevel(nil), base.Caches...)
		l1 := c.Caches[0]
		l1.SizeBytes = kb << 10
		// Keep 4 KB per way so the set count stays a power of two across
		// sizes.
		l1.Assoc = kb / 4
		if l1.Assoc < 1 {
			l1.Assoc = 1
		}
		c.Caches[0] = l1
		candidates[i] = c
	}

	counts := []int{96, 384, 1536, 6144}
	opt := tracex.CollectOptions{Sampling: tracex.FixedSampling(200_000, 0)}
	const lookupBlockID = 2

	fmt.Println("Table III (swept): flux_lookup_table L1 hit rate across candidate L1 sizes")
	fmt.Printf("%10s", "Core Count")
	for _, kb := range l1KBs {
		fmt.Printf("%9s", fmt.Sprintf("%d KB", kb))
	}
	fmt.Println()
	for _, p := range counts {
		// One reuse-distance collection per core count...
		start := time.Now()
		rs, _, err := eng.CollectReuse(ctx, app, p, opt)
		if err != nil {
			log.Fatal(err)
		}
		collectTime := time.Since(start)
		// ...then every candidate geometry is served from it analytically.
		start = time.Now()
		fmt.Printf("%10d", p)
		for _, sys := range candidates {
			sig, err := tracex.DeriveSignature(rs, app, sys)
			if err != nil {
				log.Fatal(err)
			}
			blk := sig.DominantTrace().BlockByID()[lookupBlockID]
			fmt.Printf("%8.1f%%", 100*blk.FV.HitRates[0])
		}
		sweepTime := time.Since(start)
		fmt.Printf("   (collected in %v, %d-geometry sweep in %v)\n",
			collectTime.Round(time.Millisecond), len(candidates), sweepTime.Round(time.Millisecond))
	}

	// The architect's conclusion: compare predicted runtimes on the Table
	// III pair at the largest scale, both signatures derived from the one
	// 6144-core reuse profile (already cached by the loop above).
	rs, _, err := eng.CollectReuse(ctx, app, 6144, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\npredicted 6144-core runtime on the Table III candidates:")
	for _, name := range []string{"systemA-12KB-L1", "systemB-56KB-L1"} {
		sys, err := tracex.LoadMachine(name)
		if err != nil {
			log.Fatal(err)
		}
		prof, err := eng.Profile(ctx, sys)
		if err != nil {
			log.Fatal(err)
		}
		sig, err := tracex.DeriveSignature(rs, app, sys)
		if err != nil {
			log.Fatal(err)
		}
		pred, err := eng.Predict(ctx, tracex.PredictRequest{Signature: sig, Profile: prof, App: app})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-18s %8.1f s\n", sys.Name, pred.Runtime)
	}
}
