package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"tracex"
	"tracex/internal/extrap"
	"tracex/wire"
)

// cmdReport runs the complete analysis for one application — collect at a
// series of core counts, extrapolate, predict, measure, audit — and writes
// a self-contained markdown report. The whole pipeline is one Engine.Study
// (profile sweep, input collections and the target-scale truth collection
// all run concurrently on the engine's worker pool) plus the detailed
// execution simulation.
func cmdReport(ctx context.Context, eng *tracex.Engine, args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	appName := fs.String("app", "", "application name")
	machineName := fs.String("machine", "bluewaters", "target machine")
	countsFlag := fs.String("counts", "", "comma-separated input core counts (default: the paper's for specfem3d/uh3d)")
	target := fs.Int("target", 0, "target core count (default: the paper's)")
	out := fs.String("out", "", "output markdown path (default: stdout)")
	energy := fs.Bool("energy", true, "include the energy/DVFS section")
	jsonOut := fs.Bool("json", false, "emit the study as the tracexd wire JSON body instead of markdown")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *appName == "" {
		return fmt.Errorf("report requires -app")
	}
	counts, targetCount, err := reportScale(*appName, *countsFlag, *target)
	if err != nil {
		return err
	}
	app, cfg, err := loadAppMachine(*appName, *machineName)
	if err != nil {
		return err
	}
	opt, err := collectOptions()
	if err != nil {
		return err
	}
	if *jsonOut {
		return writeStudyJSON(ctx, eng, *out, app, cfg, counts, targetCount, opt)
	}
	if *out == "" {
		return writeReport(ctx, eng, os.Stdout, app, cfg, counts, targetCount, opt, *energy)
	}
	// Buffer the report so an interrupted run leaves no partial file.
	var buf bytes.Buffer
	if err := writeReport(ctx, eng, &buf, app, cfg, counts, targetCount, opt, *energy); err != nil {
		return err
	}
	return os.WriteFile(*out, buf.Bytes(), 0o644)
}

// writeStudyJSON runs the report's study and emits it as the tracexd
// /v1/study response body — the same wire type and append encoder the
// server uses, so scripted callers parse one shape regardless of whether
// the study ran locally or against a daemon.
func writeStudyJSON(ctx context.Context, eng *tracex.Engine, out string,
	app *tracex.App, cfg tracex.MachineConfig,
	counts []int, targetCount int, opt tracex.CollectOptions) error {

	study, err := eng.Study(ctx, tracex.StudyRequest{
		App:         app,
		Machine:     cfg,
		InputCounts: counts,
		TargetCores: targetCount,
		Collect:     opt,
		WithTruth:   true,
	})
	if err != nil {
		return err
	}
	resp := &wire.StudyResponse{
		App:         app.Name(),
		Machine:     cfg.Name,
		InputCounts: counts,
		Rows:        study.Rows(),
	}
	b := append(resp.AppendJSON(make([]byte, 0, 1024)), '\n')
	if out == "" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(out, b, 0o644)
}

// reportScale resolves the input/target core counts, defaulting to the
// paper's setup for the two headline applications.
func reportScale(appName, countsFlag string, target int) ([]int, int, error) {
	defaults := map[string]struct {
		counts []int
		target int
	}{
		"specfem3d":     {[]int{96, 384, 1536}, 6144},
		"uh3d":          {[]int{1024, 2048, 4096}, 8192},
		"stencil3d":     {[]int{64, 128, 256}, 1024},
		"stencil3dweak": {[]int{64, 128, 256}, 1024},
	}
	var counts []int
	if countsFlag != "" {
		for _, part := range strings.Split(countsFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return nil, 0, fmt.Errorf("bad core count %q", part)
			}
			counts = append(counts, n)
		}
	} else if d, ok := defaults[appName]; ok {
		counts = d.counts
	} else {
		return nil, 0, fmt.Errorf("no default counts for %q; pass -counts", appName)
	}
	if target == 0 {
		if d, ok := defaults[appName]; ok {
			target = d.target
		} else {
			return nil, 0, fmt.Errorf("no default target for %q; pass -target", appName)
		}
	}
	return counts, target, nil
}

func writeReport(ctx context.Context, eng *tracex.Engine, w io.Writer,
	app *tracex.App, cfg tracex.MachineConfig,
	counts []int, targetCount int, opt tracex.CollectOptions, includeEnergy bool) error {

	countStrs := make([]string, len(counts))
	for i, c := range counts {
		countStrs[i] = strconv.Itoa(c)
	}
	fmt.Fprintf(w, "# Trace extrapolation report: %s on %s\n\n", app.Name(), cfg.Name)
	fmt.Fprintf(w, "Input core counts %s, extrapolated to **%d** cores.\n\n",
		strings.Join(countStrs, "/"), targetCount)

	study, err := eng.Study(ctx, tracex.StudyRequest{
		App:         app,
		Machine:     cfg,
		InputCounts: counts,
		TargetCores: targetCount,
		Collect:     opt,
		WithTruth:   true,
	})
	if err != nil {
		return err
	}
	tgt := study.Target(targetCount)
	if tgt == nil {
		return fmt.Errorf("study produced no result for %d cores", targetCount)
	}
	prof, inputs, res := study.Profile, study.Inputs, tgt.Extrapolation
	predExtrap, predColl := tgt.Extrapolated, tgt.Collected
	measured, err := eng.Measure(ctx, app, targetCount, cfg, opt)
	if err != nil {
		return err
	}

	// Headline table.
	fmt.Fprintf(w, "## Runtime prediction (Table I style)\n\n")
	fmt.Fprintf(w, "| Trace | Predicted (s) | Measured (s) | Error |\n|---|---|---|---|\n")
	pct := func(x float64) string {
		return fmt.Sprintf("%.1f %%", 100*math.Abs(x-measured.Runtime)/measured.Runtime)
	}
	fmt.Fprintf(w, "| Extrapolated | %.2f | %.2f | %s |\n",
		predExtrap.Runtime, measured.Runtime, pct(predExtrap.Runtime))
	fmt.Fprintf(w, "| Collected | %.2f | %.2f | %s |\n\n",
		predColl.Runtime, measured.Runtime, pct(predColl.Runtime))

	// Selected forms per block (mem_ops as the representative element).
	fmt.Fprintf(w, "## Selected canonical forms (memory operations)\n\n")
	fmt.Fprintf(w, "| Block | Form | Extrapolated refs | R² |\n|---|---|---|---|\n")
	blocks := res.Signature.Traces[0].Blocks
	for _, blk := range blocks {
		fits := res.FitsFor(blk.ID)
		f := fits["mem_ops"]
		fmt.Fprintf(w, "| %s | %s | %.4g | %.4f |\n", blk.Func, f.Form, f.Extrapolated, f.R2)
	}
	fmt.Fprintln(w)

	// Element audit.
	errs, err := tracex.CompareTraces(&res.Signature.Traces[0], tgt.Truth.DominantTrace())
	if err != nil {
		return err
	}
	infl := extrap.InfluentialErrors(errs)
	sort.Slice(infl, func(i, j int) bool { return infl[i].AbsRelErr > infl[j].AbsRelErr })
	fmt.Fprintf(w, "## Influential-element audit (paper §IV: < 20 %%)\n\n")
	fmt.Fprintf(w, "Max error **%.1f %%** over %d influential elements. Worst five:\n\n",
		100*extrap.MaxInfluentialError(errs), len(infl))
	fmt.Fprintf(w, "| Block / element | Extrapolated | Collected | Error |\n|---|---|---|---|\n")
	for i, e := range infl {
		if i == 5 {
			break
		}
		fmt.Fprintf(w, "| %s/%s | %.5g | %.5g | %.2f %% |\n",
			e.Func, e.Element, e.Extrapolated, e.Collected, 100*e.AbsRelErr)
	}
	fmt.Fprintln(w)

	// Hit rates across counts for the dominant block.
	dom := res.Signature.Traces[0]
	hot := dom.Blocks[0]
	for i := range dom.Blocks {
		if dom.Blocks[i].FV.MemOps > hot.FV.MemOps {
			hot = dom.Blocks[i]
		}
	}
	fmt.Fprintf(w, "## Target-system cache residency of %s (Table II style)\n\n", hot.Func)
	fmt.Fprintf(w, "| Cores | Source |")
	for l := 1; l <= dom.Levels; l++ {
		fmt.Fprintf(w, " L%d |", l)
	}
	fmt.Fprintf(w, "\n|---|---|")
	fmt.Fprint(w, strings.Repeat("---|", dom.Levels), "\n")
	writeHR := func(cores int, src string, hr []float64) {
		fmt.Fprintf(w, "| %d | %s |", cores, src)
		for _, h := range hr {
			fmt.Fprintf(w, " %.1f %% |", 100*h)
		}
		fmt.Fprintln(w)
	}
	for _, sig := range inputs {
		if blk, ok := sig.DominantTrace().BlockByID()[hot.ID]; ok {
			writeHR(sig.CoreCount, "collected", blk.FV.HitRates)
		}
	}
	writeHR(targetCount, "extrapolated", hot.FV.HitRates)
	fmt.Fprintln(w)

	if includeEnergy {
		model := tracex.DefaultEnergyModel(cfg)
		rep, err := tracex.EstimateEnergy(res.Signature, prof, model)
		if err != nil {
			return err
		}
		pts, err := tracex.DVFSSweep(res.Signature, prof, model,
			[]float64{0.6, 0.8, 1.0, 1.2})
		if err != nil {
			return err
		}
		minE, minEDP := tracex.OptimalFrequency(pts)
		fmt.Fprintf(w, "## Energy (from the extrapolated trace)\n\n")
		fmt.Fprintf(w, "Dominant-task computation: %.1f s, %.1f J (%.1f W/core average).\n",
			rep.Seconds, rep.Joules, rep.AvgWatts)
		fmt.Fprintf(w, "Energy-optimal frequency %.1f×nominal; EDP-optimal %.1f×nominal.\n\n",
			minE.Scale, minEDP.Scale)
	}
	fmt.Fprintf(w, "---\nGenerated by `tracex report` (deterministic; machine model %q).\n", cfg.Name)
	return nil
}
