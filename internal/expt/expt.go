// Package expt is the experiment harness: one entry point per table and
// figure in the paper's evaluation, each returning structured rows that the
// cmd/experiments tool renders and the repository's benchmarks regenerate.
// Paper-vs-measured outcomes are recorded in EXPERIMENTS.md.
package expt

import (
	"context"
	"fmt"
	"math"

	"tracex/internal/extrap"
	"tracex/internal/machine"
	"tracex/internal/pebil"
	"tracex/internal/stats"
	"tracex/internal/synthapp"
	"tracex/internal/trace"
)

// Config tunes the harness. The zero value runs the paper-scale experiments
// with default collection settings.
type Config struct {
	// Collect tunes signature collection (sampling and warm-up sizes).
	Collect pebil.CollectorConfig
	// Ctx cancels long experiment pipelines mid-simulation; nil means
	// context.Background() (run to completion).
	Ctx context.Context
}

// context returns the configured context, defaulting to Background.
func (c Config) context() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// Spec pins the paper's experimental setup for one application.
type Spec struct {
	App         string
	InputCounts []int
	TargetCount int
}

// PaperSpecs returns the two applications exactly as the paper evaluates
// them: SPECFEM3D extrapolated from 96/384/1536 to 6144 cores and UH3D from
// 1024/2048/4096 to 8192 cores, both targeting the Phase-I Blue Waters
// model.
func PaperSpecs() []Spec {
	return []Spec{
		{App: "specfem3d", InputCounts: []int{96, 384, 1536}, TargetCount: 6144},
		{App: "uh3d", InputCounts: []int{1024, 2048, 4096}, TargetCount: 8192},
	}
}

// TargetMachine returns the prediction target used throughout the
// evaluation.
func TargetMachine() machine.Config { return machine.BlueWatersP1() }

// Table1Row is one line of Table I: the runtime predicted from one kind of
// trace, against the measured runtime.
type Table1Row struct {
	App       string
	CoreCount int
	TraceType string // "Extrap." or "Coll."
	Predicted float64
	Measured  float64
	PctError  float64
}

// Table1 reproduces Table I: for each application, predict the target-scale
// runtime twice — once from the extrapolated trace and once from the
// actually-collected trace — and compare both against the detailed
// simulation's measured runtime.
func Table1(cfg Config) ([]Table1Row, error) {
	target := TargetMachine()
	prof, err := buildProfile(cfg.context(), target)
	if err != nil {
		return nil, err
	}
	var rows []Table1Row
	for _, spec := range PaperSpecs() {
		app, err := synthapp.ByName(spec.App)
		if err != nil {
			return nil, err
		}
		inputs, err := collectInputs(cfg.context(), app, spec.InputCounts, target, cfg.Collect)
		if err != nil {
			return nil, err
		}
		res, err := extrap.Extrapolate(cfg.context(), inputs, spec.TargetCount, extrap.Options{})
		if err != nil {
			return nil, err
		}
		collected, err := collectSig(cfg.context(), app, spec.TargetCount, target, cfg.Collect, nil)
		if err != nil {
			return nil, err
		}
		measured, err := measure(cfg.context(), app, spec.TargetCount, target, cfg.Collect)
		if err != nil {
			return nil, err
		}
		for _, tc := range []struct {
			kind string
			sig  *trace.Signature
		}{
			{"Extrap.", res.Signature},
			{"Coll.", collected},
		} {
			pred, err := predictSig(cfg.context(), tc.sig, prof, app)
			if err != nil {
				return nil, fmt.Errorf("expt: predicting %s from %s trace: %w", spec.App, tc.kind, err)
			}
			rows = append(rows, Table1Row{
				App:       spec.App,
				CoreCount: spec.TargetCount,
				TraceType: tc.kind,
				Predicted: pred.Runtime,
				Measured:  measured.Runtime,
				PctError:  100 * math.Abs(pred.Runtime-measured.Runtime) / measured.Runtime,
			})
		}
	}
	return rows, nil
}

// Table2Row is one line of Table II: a basic block's cumulative cache hit
// rates on the target system at one core count.
type Table2Row struct {
	CoreCount  int
	L1, L2, L3 float64 // percent
}

// Table2 reproduces Table II: the target-system cache hit rates of the UH3D
// field_update block as the core count increases and its shrinking working
// set drains into the deeper cache levels.
func Table2(cfg Config) ([]Table2Row, error) {
	app, err := synthapp.ByName("uh3d")
	if err != nil {
		return nil, err
	}
	target := TargetMachine()
	var rows []Table2Row
	for _, p := range []int{1024, 2048, 4096, 8192} {
		counters, err := collectCounters(cfg.context(), app, p, target, cfg.Collect)
		if err != nil {
			return nil, err
		}
		found := false
		for _, bc := range counters {
			if bc.Spec.Func != "field_update" {
				continue
			}
			r := bc.Counters.CumulativeHitRates()
			rows = append(rows, Table2Row{CoreCount: p, L1: 100 * r[0], L2: 100 * r[1], L3: 100 * r[2]})
			found = true
		}
		if !found {
			return nil, fmt.Errorf("expt: field_update block missing at %d cores", p)
		}
	}
	return rows, nil
}

// Table3Row is one line of Table III: a block's L1 hit rate on two candidate
// systems at one core count.
type Table3Row struct {
	CoreCount        int
	SystemA, SystemB float64 // percent (12 KB and 56 KB L1)
}

// Table3 reproduces Table III: the L1 hit rate of the SPECFEM3D
// flux_lookup_table block on two target systems that differ only in L1 size
// (12 KB vs 56 KB), across the paper's SPECFEM3D core counts. The block's
// fixed per-rank footprint keeps the rate flat in core count but residency
// flips with the candidate L1 size.
func Table3(cfg Config) ([]Table3Row, error) {
	app, err := synthapp.ByName("specfem3d")
	if err != nil {
		return nil, err
	}
	sysA, sysB := machine.SystemA12KB(), machine.SystemB56KB()
	var rows []Table3Row
	for _, p := range []int{96, 384, 1536, 6144} {
		row := Table3Row{CoreCount: p}
		for _, sys := range []struct {
			cfg  machine.Config
			dest *float64
		}{
			{sysA, &row.SystemA},
			{sysB, &row.SystemB},
		} {
			counters, err := collectCounters(cfg.context(), app, p, sys.cfg, cfg.Collect)
			if err != nil {
				return nil, err
			}
			found := false
			for _, bc := range counters {
				if bc.Spec.Func == "flux_lookup_table" {
					*sys.dest = 100 * bc.Counters.CumulativeHitRates()[0]
					found = true
				}
			}
			if !found {
				return nil, fmt.Errorf("expt: flux_lookup_table missing at %d cores on %s", p, sys.cfg.Name)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Figure1Row is one point of the MultiMAPS bandwidth surface (Figure 1).
type Figure1Row struct {
	WorkingSetBytes  uint64
	StrideBytes      uint64
	ResidentFraction float64
	HitRates         []float64
	BandwidthGBs     float64
}

// Figure1 reproduces Figure 1: the MultiMAPS surface of the two-cache-level
// Opteron — measured bandwidth as a function of the cache hit rates each
// probe achieves.
func Figure1() ([]Figure1Row, error) {
	cfg := machine.Opteron2L()
	prof, err := buildProfile(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	rows := make([]Figure1Row, 0, len(prof.Surface))
	for _, sp := range prof.Surface {
		rows = append(rows, Figure1Row{
			WorkingSetBytes:  sp.WorkingSetBytes,
			StrideBytes:      sp.StrideBytes,
			ResidentFraction: sp.ResidentFraction,
			HitRates:         sp.HitRates,
			BandwidthGBs:     sp.BandwidthGBs,
		})
	}
	return rows, nil
}

// FitSeries is a feature-element series across core counts with every
// canonical form's fit, as rendered in Figures 4 and 5.
type FitSeries struct {
	App      string
	Block    string
	Element  string
	Counts   []float64
	Measured []float64
	// FitValues[form][i] is form's fitted value at Counts[i].
	FitValues map[string][]float64
	// Selected is the winning canonical form.
	Selected string
}

// fitSeries collects one block element across counts and fits all forms.
func fitSeries(appName, blockFunc, element string, counts []int, cfg Config) (*FitSeries, error) {
	app, err := synthapp.ByName(appName)
	if err != nil {
		return nil, err
	}
	target := TargetMachine()
	names := trace.ElementNames(len(target.Caches))
	elemIdx := -1
	for i, n := range names {
		if n == element {
			elemIdx = i
		}
	}
	if elemIdx < 0 {
		return nil, fmt.Errorf("expt: unknown element %q", element)
	}
	fs := &FitSeries{App: appName, Block: blockFunc, Element: element, FitValues: map[string][]float64{}}
	for _, p := range counts {
		sig, err := collectSig(cfg.context(), app, p, target, cfg.Collect, []int{0})
		if err != nil {
			return nil, err
		}
		var blk *trace.Block
		for i := range sig.Traces[0].Blocks {
			if sig.Traces[0].Blocks[i].Func == blockFunc {
				blk = &sig.Traces[0].Blocks[i]
			}
		}
		if blk == nil {
			return nil, fmt.Errorf("expt: block %q missing at %d cores", blockFunc, p)
		}
		vals, err := blk.FV.Values(sig.Traces[0].Levels)
		if err != nil {
			return nil, err
		}
		fs.Counts = append(fs.Counts, float64(p))
		fs.Measured = append(fs.Measured, vals[elemIdx])
	}
	sel := stats.NewSelector(nil)
	all, err := sel.FitAll(fs.Counts, fs.Measured)
	if err != nil {
		return nil, err
	}
	for form, fr := range all {
		vals := make([]float64, len(fs.Counts))
		for i, x := range fs.Counts {
			vals[i] = fr.Model.Eval(x)
		}
		fs.FitValues[form] = vals
	}
	best, err := sel.Select(fs.Counts, fs.Measured)
	if err != nil {
		return nil, err
	}
	fs.Selected = best.Model.Name()
	return fs, nil
}

// Figure4 reproduces Figure 4: the linearly rising L2 hit rate of a single
// block (UH3D current_deposit) across core counts, with all four canonical
// fits; the linear model captures the behaviour.
func Figure4(cfg Config) (*FitSeries, error) {
	return fitSeries("uh3d", "current_deposit", "hit_rate_L2", []int{1024, 2048, 4096, 8192}, cfg)
}

// Figure5 reproduces Figure 5: the logarithmically growing memory-operation
// count of a single block (UH3D field_update) across core counts, with all
// four canonical fits; the logarithmic model captures the behaviour.
func Figure5(cfg Config) (*FitSeries, error) {
	return fitSeries("uh3d", "field_update", "mem_ops", []int{1024, 2048, 4096, 8192}, cfg)
}

// Figure3Row shows one extrapolated element of a single block — the
// per-element extrapolation of Figure 3.
type Figure3Row struct {
	Element      string
	Form         string
	Inputs       []float64
	Extrapolated float64
}

// Figure3 demonstrates Figure 3's principle on the SPECFEM3D dominant
// block: each element of the block's feature vector is fitted and
// extrapolated independently.
func Figure3(cfg Config) ([]Figure3Row, error) {
	app, err := synthapp.ByName("specfem3d")
	if err != nil {
		return nil, err
	}
	target := TargetMachine()
	spec := PaperSpecs()[0]
	inputs, err := collectInputs(cfg.context(), app, spec.InputCounts, target, cfg.Collect)
	if err != nil {
		return nil, err
	}
	res, err := extrap.Extrapolate(cfg.context(), inputs, spec.TargetCount, extrap.Options{})
	if err != nil {
		return nil, err
	}
	const blockID = 1 // compute_element_forces
	fits := res.FitsFor(blockID)
	names := trace.ElementNames(len(target.Caches))
	var rows []Figure3Row
	for _, name := range names {
		f, ok := fits[name]
		if !ok {
			return nil, fmt.Errorf("expt: no fit for element %s", name)
		}
		var series []float64
		for _, sig := range inputs {
			blk := sig.DominantTrace().BlockByID()[blockID]
			vals, err := blk.FV.Values(len(target.Caches))
			if err != nil {
				return nil, err
			}
			for i, n := range names {
				if n == name {
					series = append(series, vals[i])
				}
			}
		}
		rows = append(rows, Figure3Row{
			Element:      name,
			Form:         f.Form,
			Inputs:       series,
			Extrapolated: f.Extrapolated,
		})
	}
	return rows, nil
}

// InfluentialErrorResult summarizes the paper's in-text Section IV claim
// for one application: the distribution of absolute relative errors over
// the extrapolated elements of influential blocks.
type InfluentialErrorResult struct {
	App          string
	TargetCount  int
	MaxError     float64 // fraction, paper claims < 0.20
	MeanError    float64
	NumElements  int
	NumInfluent  int
	WorstElement string
}

// InfluentialElementError reproduces the Section IV in-text claim: every
// extrapolated element of every influential block (>0.1 % of memory
// operations) has an absolute relative error below 20 %.
func InfluentialElementError(cfg Config) ([]InfluentialErrorResult, error) {
	target := TargetMachine()
	var out []InfluentialErrorResult
	for _, spec := range PaperSpecs() {
		app, err := synthapp.ByName(spec.App)
		if err != nil {
			return nil, err
		}
		inputs, err := collectInputs(cfg.context(), app, spec.InputCounts, target, cfg.Collect)
		if err != nil {
			return nil, err
		}
		res, err := extrap.Extrapolate(cfg.context(), inputs, spec.TargetCount, extrap.Options{})
		if err != nil {
			return nil, err
		}
		truth, err := collectSig(cfg.context(), app, spec.TargetCount, target, cfg.Collect, []int{0})
		if err != nil {
			return nil, err
		}
		errs, err := extrap.Compare(&res.Signature.Traces[0], &truth.Traces[0])
		if err != nil {
			return nil, err
		}
		infl := extrap.InfluentialErrors(errs)
		r := InfluentialErrorResult{
			App:         spec.App,
			TargetCount: spec.TargetCount,
			NumElements: len(errs),
			NumInfluent: len(infl),
		}
		var sum float64
		for _, e := range infl {
			sum += e.AbsRelErr
			if e.AbsRelErr > r.MaxError {
				r.MaxError = e.AbsRelErr
				r.WorstElement = e.Func + "/" + e.Element
			}
		}
		if len(infl) > 0 {
			r.MeanError = sum / float64(len(infl))
		}
		out = append(out, r)
	}
	return out, nil
}
