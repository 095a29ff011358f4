// Benchmarks regenerating every table and figure of the paper's evaluation
// section (one benchmark per exhibit), plus the repository's ablations and
// pipeline-stage throughput measurements. Each exhibit benchmark reports
// its headline numbers as custom metrics and prints the table rows once.
package tracex_test

import (
	"context"
	"sync"
	"testing"

	"tracex"
	"tracex/internal/expt"
	"tracex/internal/mpi"
	"tracex/internal/psins"
)

// benchConfig keeps per-iteration cost moderate while preserving the
// steady-state warm-up that the multi-megabyte random regions need.
var benchConfig = expt.Config{
	Collect: tracex.CollectOptions{Sampling: tracex.FixedSampling(150_000, 1_000_000)},
}

var printOnce sync.Map

// logOnce prints a table header and rows a single time per benchmark name.
func logOnce(b *testing.B, name string, rows func()) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		rows()
	}
}

// BenchmarkTable1 regenerates Table I: target-scale runtime predictions
// from extrapolated vs collected traces for SPECFEM3D (6144 cores) and
// UH3D (8192 cores), against the detailed-simulation measured runtime.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.Table1(benchConfig)
		if err != nil {
			b.Fatal(err)
		}
		var maxErr float64
		for _, r := range rows {
			if r.PctError > maxErr {
				maxErr = r.PctError
			}
		}
		b.ReportMetric(maxErr, "max_pct_error")
		logOnce(b, "table1", func() {
			for _, r := range rows {
				b.Logf("Table I: %-10s %5d %-7s predicted %7.1f s measured %7.1f s err %.1f%%",
					r.App, r.CoreCount, r.TraceType, r.Predicted, r.Measured, r.PctError)
			}
		})
	}
}

// BenchmarkTable2 regenerates Table II: the field_update block's cache hit
// rates on the target system as UH3D strong-scales from 1024 to 8192 cores.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.Table2(benchConfig)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].L3-rows[0].L3, "L3_rise_pts")
		logOnce(b, "table2", func() {
			for _, r := range rows {
				b.Logf("Table II: %5d cores L1 %.1f%% L2 %.1f%% L3 %.1f%%", r.CoreCount, r.L1, r.L2, r.L3)
			}
		})
	}
}

// BenchmarkTable3 regenerates Table III: the lookup-table block's L1 hit
// rate on two candidate systems differing only in L1 size.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.Table3(benchConfig)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].SystemB-rows[0].SystemA, "residency_gap_pts")
		logOnce(b, "table3", func() {
			for _, r := range rows {
				b.Logf("Table III: %5d cores A(12KB) %.1f%% B(56KB) %.1f%%", r.CoreCount, r.SystemA, r.SystemB)
			}
		})
	}
}

// BenchmarkFigure1 regenerates Figure 1: the MultiMAPS bandwidth surface of
// the two-level Opteron.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		var min, max float64
		for _, r := range rows {
			if min == 0 || r.BandwidthGBs < min {
				min = r.BandwidthGBs
			}
			if r.BandwidthGBs > max {
				max = r.BandwidthGBs
			}
		}
		b.ReportMetric(max/min, "bw_dynamic_range")
		b.ReportMetric(float64(len(rows)), "surface_points")
	}
}

// BenchmarkFigure3 regenerates Figure 3: independent per-element
// extrapolation of one basic block's feature vector.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.Figure3(benchConfig)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(rows)), "elements")
	}
}

// BenchmarkFigure4 regenerates Figure 4: the linearly rising L2 hit rate of
// a single block, with all four canonical fits (linear must win).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fs, err := expt.Figure4(benchConfig)
		if err != nil {
			b.Fatal(err)
		}
		if fs.Selected != "linear" {
			b.Fatalf("Figure 4 selected %s, want linear", fs.Selected)
		}
		logOnce(b, "figure4", func() {
			for j, x := range fs.Counts {
				b.Logf("Figure 4: %5.0f cores L2 HR %.4f", x, fs.Measured[j])
			}
		})
	}
}

// BenchmarkFigure5 regenerates Figure 5: the logarithmically growing memory
// operation count of a single block (logarithmic must win).
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fs, err := expt.Figure5(benchConfig)
		if err != nil {
			b.Fatal(err)
		}
		if fs.Selected != "logarithmic" {
			b.Fatalf("Figure 5 selected %s, want logarithmic", fs.Selected)
		}
	}
}

// BenchmarkInfluentialError regenerates the Section IV in-text claim: the
// maximum extrapolation error over influential blocks' elements (<20 %).
func BenchmarkInfluentialError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.InfluentialElementError(benchConfig)
		if err != nil {
			b.Fatal(err)
		}
		var max float64
		for _, r := range rows {
			if r.MaxError > max {
				max = r.MaxError
			}
		}
		b.ReportMetric(100*max, "max_element_err_pct")
	}
}

// BenchmarkAblationForms measures extrapolation accuracy across canonical-
// form subsets and the future-work extended set.
func BenchmarkAblationForms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.AblationForms(benchConfig)
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, "ablationforms", func() {
			for _, r := range rows {
				b.Logf("forms %-22s %-10s max %.1f%% mean %.1f%%",
					r.FormSet, r.App, 100*r.MaxError, 100*r.MeanErr)
			}
		})
	}
}

// BenchmarkAblationInputCounts measures extrapolation accuracy as a
// function of the number of input core counts.
func BenchmarkAblationInputCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.AblationInputCounts(benchConfig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationClustering compares uniform (slowest-task) rank scaling
// against the future-work per-cluster pricing.
func BenchmarkAblationClustering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.AblationClustering(benchConfig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWeakScaling measures the weak-vs-strong scaling extension
// (Future Work §VI).
func BenchmarkWeakScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.WeakScaling(benchConfig)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Regime == "weak" {
				b.ReportMetric(r.PredErrPct, "weak_pred_err_pct")
			}
		}
	}
}

// BenchmarkCommExtrap measures the communication-trace extrapolation
// complement (ScalaExtrap-style).
func BenchmarkCommExtrap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.CommExtrap(benchConfig)
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, r := range rows {
			for _, e := range r.FieldErrors {
				if e > worst {
					worst = e
				}
			}
		}
		b.ReportMetric(100*worst, "worst_field_err_pct")
	}
}

// BenchmarkEnergyDVFS measures the energy/DVFS extension priced from
// extrapolated traces.
func BenchmarkEnergyDVFS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.EnergyDVFS(benchConfig)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].OptEnergyF, "specfem_opt_freq")
	}
}

// BenchmarkPrefetchExploration measures the hardware-prefetcher design
// study (Table III-style exploration of a knob the paper didn't cover).
func BenchmarkPrefetchExploration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.PrefetchExploration(benchConfig)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.App == "specfem3d" {
				b.ReportMetric(r.SpeedupPct, "specfem_speedup_pct")
			}
		}
	}
}

// BenchmarkCrossArch measures the cross-architectural prediction experiment
// (paper §III-A).
func BenchmarkCrossArch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.CrossArch(benchConfig)
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, r := range rows {
			if r.PctError > worst {
				worst = r.PctError
			}
		}
		b.ReportMetric(worst, "worst_pct_error")
	}
}

// BenchmarkAblationDistance measures the extrapolation-distance ablation.
func BenchmarkAblationDistance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.AblationDistance(benchConfig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCollectionMode measures the private-vs-shared
// signature-collection ablation.
func BenchmarkAblationCollectionMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.AblationCollectionMode(benchConfig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineEndToEnd measures the full quickstart pipeline (profile,
// collect ×3, extrapolate, predict, measure) at small scale — the cost a
// user pays for one complete analysis. Caching is disabled so every
// iteration pays the full simulation cost.
func BenchmarkPipelineEndToEnd(b *testing.B) {
	app, err := tracex.LoadApp("stencil3d")
	if err != nil {
		b.Fatal(err)
	}
	target, err := tracex.LoadMachine("bluewaters")
	if err != nil {
		b.Fatal(err)
	}
	opt := tracex.CollectOptions{Sampling: tracex.FixedSampling(100_000, 400_000)}
	eng := tracex.NewEngine(tracex.WithCacheSize(0))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prof, err := eng.Profile(ctx, target)
		if err != nil {
			b.Fatal(err)
		}
		inputs, err := eng.CollectInputs(ctx, app, []int{64, 128, 256}, target, opt)
		if err != nil {
			b.Fatal(err)
		}
		res, err := eng.Extrapolate(ctx, inputs, 512, tracex.ExtrapOptions{})
		if err != nil {
			b.Fatal(err)
		}
		req := tracex.PredictRequest{Signature: res.Signature, App: app, Profile: prof}
		if _, err := eng.Predict(ctx, req); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Measure(ctx, app, 512, target, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplay8192Ranks measures the discrete-event replay engine on the
// paper's largest configuration (8192 ranks of UH3D's event trace). Each op
// is one psins.Replay: the walk of the application's description and the
// pricing of its events. The program is compiled once, untimed, only to
// count its events.
func BenchmarkReplay8192Ranks(b *testing.B) {
	app, err := tracex.LoadApp("uh3d")
	if err != nil {
		b.Fatal(err)
	}
	build, err := app.Build(8192)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := mpi.Compile(app.Name(), 8192, build)
	if err != nil {
		b.Fatal(err)
	}
	target, _ := tracex.LoadMachine("bluewaters")
	net, err := psins.NewNetwork(target.Network)
	if err != nil {
		b.Fatal(err)
	}
	cost := func(rank int, blockID uint64, share float64) (float64, error) {
		return 0.001 * share, nil
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := psins.Replay(ctx, 8192, build, net, cost, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(prog.Ops))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkSignatureCollection measures the instrumentation-emulation and
// cache-simulation throughput of one full signature collection.
func BenchmarkSignatureCollection(b *testing.B) {
	app, err := tracex.LoadApp("uh3d")
	if err != nil {
		b.Fatal(err)
	}
	target, _ := tracex.LoadMachine("bluewaters")
	opt := tracex.CollectOptions{Sampling: tracex.FixedSampling(200_000, 1_000_000)}
	eng := tracex.NewEngine(tracex.WithCacheSize(0))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.CollectSignature(ctx, app, 2048, target, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGrid3DFactorization measures rank-grid factorization across the
// paper's core counts.
func BenchmarkGrid3DFactorization(b *testing.B) {
	counts := []int{96, 384, 1024, 1536, 2048, 4096, 6144, 8192}
	for i := 0; i < b.N; i++ {
		for _, n := range counts {
			if _, err := mpi.NewGrid3D(n); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkScalingCurve measures the predicted strong-scaling-curve
// extension (five extrapolation targets from one input set).
func BenchmarkScalingCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.ScalingCurve(benchConfig)
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, r := range rows {
			if r.PctError > worst {
				worst = r.PctError
			}
		}
		b.ReportMetric(worst, "worst_pct_error")
	}
}

// BenchmarkCalibration measures the machine-profile inverse problem demo.
func BenchmarkCalibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.CalibrationDemo(benchConfig)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rows[0].CalibratedErr, "calibrated_err_pct")
	}
}
