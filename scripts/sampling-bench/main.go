// Command sampling-bench compares the adaptive sampling policy against the
// fixed default on the paper's Table I workloads: for each application it
// measures the predicted runtime and the number of simulated references
// under both policies, then reports the runtime drift and the reference
// (collection-cost) ratio. Results are recorded into BENCH_collect.json,
// merging with runs recorded under other labels — the same
// accumulate-by-label layout as BENCH_serve.json and BENCH_uncert.json.
//
//	go run ./scripts/sampling-bench                   # full set → BENCH_collect.json
//	go run ./scripts/sampling-bench -label smoke \
//	    -assert-min-ratio 3 -assert-max-drift 0.01    # CI smoke with acceptance gates
//
// The -assert flags turn the run into a pass/fail check: the adaptive
// policy must simulate at least min-ratio× fewer references than the fixed
// default while predicting a runtime within max-drift (relative) of it.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tracex"
	"tracex/internal/benchfile"
	"tracex/internal/expt"
)

// appCase is one benchmarked workload: a Table I application at its paper
// extrapolation-target core count.
type appCase struct {
	App   string
	Cores int
}

func defaultCases() []appCase {
	var cases []appCase
	for _, spec := range expt.PaperSpecs() {
		cases = append(cases, appCase{App: spec.App, Cores: spec.TargetCount})
	}
	return cases
}

func main() {
	fs := flag.NewFlagSet("sampling-bench", flag.ExitOnError)
	outPath := fs.String("out", "BENCH_collect.json", "result file to create or update (\"\" = stdout only)")
	label := fs.String("label", "full", "label this run is recorded under in the result file")
	apps := fs.String("apps", "", "comma-separated applications (default: the Table I set at its paper core counts)")
	policy := fs.String("policy", "adaptive:0.05", "adaptive policy to benchmark against the fixed default")
	assertMinRatio := fs.Float64("assert-min-ratio", -1, "fail unless every app's fixed/adaptive simulated-reference ratio is at least this (-1 disables)")
	assertMaxDrift := fs.Float64("assert-max-drift", -1, "fail unless every app's relative runtime drift is at most this (-1 disables)")
	_ = fs.Parse(os.Args[1:]) // ExitOnError: Parse never returns an error

	pol, err := tracex.ParseSamplingPolicy(*policy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sampling-bench: %v\n", err)
		os.Exit(1)
	}
	cases := defaultCases()
	if *apps != "" {
		byName := map[string]appCase{}
		for _, c := range cases {
			byName[c.App] = c
		}
		cases = nil
		for _, name := range splitList(*apps) {
			c, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "sampling-bench: %q is not a Table I application\n", name)
				os.Exit(1)
			}
			cases = append(cases, c)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	target := expt.TargetMachine()
	rec := &run{Policy: pol.String()}
	start := time.Now()
	fmt.Printf("%-12s %6s %14s %14s %8s %14s %14s %7s\n",
		"Application", "Cores", "Fixed(s)", "Adaptive(s)", "Drift", "FixedRefs", "AdaptRefs", "Ratio")
	for _, c := range cases {
		fixed, err := measure(ctx, c, target, tracex.CollectOptions{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "sampling-bench: %s fixed: %v\n", c.App, err)
			os.Exit(1)
		}
		adaptive, err := measure(ctx, c, target, tracex.CollectOptions{Sampling: pol})
		if err != nil {
			fmt.Fprintf(os.Stderr, "sampling-bench: %s adaptive: %v\n", c.App, err)
			os.Exit(1)
		}
		row := appRow{
			App: c.App, Cores: c.Cores,
			FixedRuntime: fixed.runtime, AdaptiveRuntime: adaptive.runtime,
			FixedRefs: fixed.refs, AdaptiveRefs: adaptive.refs,
			FixedSeconds: fixed.elapsed.Seconds(), AdaptiveSeconds: adaptive.elapsed.Seconds(),
			Drift:     math.Abs(adaptive.runtime-fixed.runtime) / fixed.runtime,
			RefsRatio: float64(fixed.refs) / float64(adaptive.refs),
		}
		rec.Rows = append(rec.Rows, row)
		fmt.Printf("%-12s %6d %14.2f %14.2f %7.2f%% %14d %14d %6.1fx\n",
			row.App, row.Cores, row.FixedRuntime, row.AdaptiveRuntime, 100*row.Drift,
			row.FixedRefs, row.AdaptiveRefs, row.RefsRatio)
	}
	rec.ElapsedSeconds = time.Since(start).Seconds()

	if *outPath != "" {
		// The run lands in BENCH_collect.json's "sampling" section; the
		// file's other sections (the collector microbenchmarks) are kept.
		if err := benchfile.Merge(*outPath, "sampling", "sampling-policy-collect", *label, rec); err != nil {
			fmt.Fprintf(os.Stderr, "sampling-bench: writing %s: %v\n", *outPath, err)
			os.Exit(1)
		}
		fmt.Printf("recorded run %q in %s\n", *label, *outPath)
	}

	ok := true
	for _, row := range rec.Rows {
		if *assertMinRatio >= 0 && row.RefsRatio < *assertMinRatio {
			fmt.Fprintf(os.Stderr, "sampling-bench: %s reference ratio %.2f below the asserted minimum %.2f\n",
				row.App, row.RefsRatio, *assertMinRatio)
			ok = false
		}
		if *assertMaxDrift >= 0 && row.Drift > *assertMaxDrift {
			fmt.Fprintf(os.Stderr, "sampling-bench: %s runtime drift %.4f above the asserted maximum %.4f\n",
				row.App, row.Drift, *assertMaxDrift)
			ok = false
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// result is one measured policy run: predicted runtime, simulated
// references (from the collector's obs counters) and wall-clock time.
type result struct {
	runtime float64
	refs    uint64
	elapsed time.Duration
}

// measure runs one collection + prediction under opt in a fresh engine, so
// the reference counters and memo caches of the two policies never mix.
func measure(ctx context.Context, c appCase, target tracex.MachineConfig, opt tracex.CollectOptions) (result, error) {
	app, err := tracex.LoadApp(c.App)
	if err != nil {
		return result{}, err
	}
	eng := tracex.NewEngine()
	if err := eng.Err(); err != nil {
		return result{}, err
	}
	defer eng.Close()
	start := time.Now()
	pred, err := eng.Measure(ctx, app, c.Cores, target, opt)
	if err != nil {
		return result{}, err
	}
	elapsed := time.Since(start)
	reg := eng.Registry()
	refs := reg.Counter("pebil.warm_refs").Value() +
		reg.Counter("pebil.sample_refs").Value() +
		reg.Counter("pebil.sampling.pilot_refs").Value() +
		reg.Counter("pebil.sampling.refined_refs").Value()
	return result{runtime: pred.Runtime, refs: refs, elapsed: elapsed}, nil
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

// appRow is one application's fixed-vs-adaptive comparison.
type appRow struct {
	App             string  `json:"app"`
	Cores           int     `json:"cores"`
	FixedRuntime    float64 `json:"fixed_runtime_seconds"`
	AdaptiveRuntime float64 `json:"adaptive_runtime_seconds"`
	Drift           float64 `json:"drift"`
	FixedRefs       uint64  `json:"fixed_refs"`
	AdaptiveRefs    uint64  `json:"adaptive_refs"`
	RefsRatio       float64 `json:"refs_ratio"`
	FixedSeconds    float64 `json:"fixed_seconds"`
	AdaptiveSeconds float64 `json:"adaptive_seconds"`
}

// run is one labeled record in BENCH_collect.json.
type run struct {
	Policy         string   `json:"policy"`
	Rows           []appRow `json:"rows"`
	ElapsedSeconds float64  `json:"elapsed_seconds"`
}
