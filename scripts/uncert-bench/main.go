// Command uncert-bench runs the held-out interval-calibration harness
// (Engine.CalibrateIntervals) over an app × machine matrix and records the
// labeled report into BENCH_uncert.json, merging with runs recorded under
// other labels — the same accumulate-by-label layout as BENCH_serve.json.
//
//	go run ./scripts/uncert-bench                     # full matrix → BENCH_uncert.json
//	go run ./scripts/uncert-bench -label smoke \
//	    -apps stencil3d,cgsolve -machines bluewaters,kraken \
//	    -assert-min-cov 0.75 -assert-max-cov 1.0      # CI smoke with acceptance gates
//
// The -assert flags turn the run into a pass/fail check on the 90% band's
// empirical coverage: outside [min, max] the process exits 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tracex"
	"tracex/internal/benchfile"
)

func main() {
	fs := flag.NewFlagSet("uncert-bench", flag.ExitOnError)
	outPath := fs.String("out", "BENCH_uncert.json", "result file to create or update (\"\" = stdout only)")
	label := fs.String("label", "full", "label this run is recorded under in the result file")
	apps := fs.String("apps", "", "comma-separated applications (default: uh3d,stencil3d,cgsolve)")
	machines := fs.String("machines", "", "comma-separated machines (default: kraken,bluewaters)")
	sampleRefs := fs.Int("sample-refs", 50000, "per-block simulated references during collection")
	assertMinCov := fs.Float64("assert-min-cov", -1, "fail unless the 90% band's coverage is at least this (-1 disables)")
	assertMaxCov := fs.Float64("assert-max-cov", -1, "fail unless the 90% band's coverage is at most this (-1 disables)")
	_ = fs.Parse(os.Args[1:]) // ExitOnError: Parse never returns an error

	cfg := tracex.CalibrationConfig{
		Collect: tracex.CollectOptions{Sampling: tracex.FixedSampling(*sampleRefs, 0)},
	}
	if *apps != "" {
		cfg.Apps = splitList(*apps)
	}
	if *machines != "" {
		cfg.Machines = splitList(*machines)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	eng := tracex.NewEngine()
	defer eng.Close()

	start := time.Now()
	rep, err := eng.CalibrateIntervals(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "uncert-bench: %v\n", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	printReport(rep, *label, elapsed)
	if *outPath != "" {
		if err := benchfile.Merge(*outPath, "", "uncert-calibration", *label, &run{
			Apps: cfg.Apps, Machines: cfg.Machines, SampleRefs: *sampleRefs,
			ElapsedSeconds: elapsed.Seconds(), Report: rep,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "uncert-bench: writing %s: %v\n", *outPath, err)
			os.Exit(1)
		}
		fmt.Printf("recorded run %q in %s\n", *label, *outPath)
	}

	cov := rep.CoverageAt(0.9)
	if *assertMinCov >= 0 && cov < *assertMinCov {
		fmt.Fprintf(os.Stderr, "uncert-bench: 90%% coverage %.3f below the asserted minimum %.3f\n", cov, *assertMinCov)
		os.Exit(1)
	}
	if *assertMaxCov >= 0 && cov > *assertMaxCov {
		fmt.Fprintf(os.Stderr, "uncert-bench: 90%% coverage %.3f above the asserted maximum %.3f\n", cov, *assertMaxCov)
		os.Exit(1)
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// printReport renders the per-cell bands and the per-level coverage table.
func printReport(rep *tracex.CalibrationReport, label string, elapsed time.Duration) {
	fmt.Printf("%s: %d cells in %.1fs\n", label, len(rep.Cells), elapsed.Seconds())
	for _, c := range rep.Cells {
		fmt.Printf("  %-14s %-12s inputs %v → %d: predicted %.2fs, actual %.2fs\n",
			c.App, c.Machine, c.InputCores, c.HeldOutCores, c.Predicted, c.Actual)
		for _, b := range c.Bands {
			mark := "miss"
			if b.Covered {
				mark = "ok"
			}
			fmt.Printf("    %2.0f%% [%9.2f, %9.2f] %s\n", 100*b.Level, b.Lo, b.Hi, mark)
		}
	}
	fmt.Printf("  %-6s %9s %14s\n", "level", "coverage", "mean rel width")
	for _, lc := range rep.Coverage {
		fmt.Printf("  %4.0f%%  %4d/%-4d %14.3f\n", 100*lc.Level, lc.Covered, lc.Cells, lc.MeanRelWidth)
	}
}

// run is one labeled calibration record in BENCH_uncert.json.
type run struct {
	Apps           []string                  `json:"apps,omitempty"`
	Machines       []string                  `json:"machines,omitempty"`
	SampleRefs     int                       `json:"sample_refs"`
	ElapsedSeconds float64                   `json:"elapsed_seconds"`
	Report         *tracex.CalibrationReport `json:"report"`
}
