package expt

import (
	"fmt"
	"math"

	"tracex/internal/cluster"
	"tracex/internal/extrap"
	"tracex/internal/pebil"
	"tracex/internal/psins"
	"tracex/internal/stats"
	"tracex/internal/synthapp"
	"tracex/internal/trace"
)

// FormsAblationRow reports extrapolation quality for one canonical-form set
// on one application.
type FormsAblationRow struct {
	App      string
	FormSet  string
	MaxError float64 // max influential element error (fraction)
	MeanErr  float64
}

// cvFormSet names the ladder entry that pairs the extended forms with
// leave-one-out cross-validated selection.
const cvFormSet = "extended + LOOCV"

// FormSets returns the ablation ladder: growing subsets of the paper's
// canonical forms, the future-work extended set (power and quadratic), and
// the extended set selected by leave-one-out cross-validation.
func FormSets() map[string][]stats.Form {
	return map[string][]stats.Form{
		"constant":              {stats.Constant{}},
		"+linear":               {stats.Constant{}, stats.Linear{}},
		"+logarithmic":          {stats.Constant{}, stats.Linear{}, stats.Logarithmic{}},
		"paper (4 canonical)":   stats.CanonicalForms(),
		"extended (+pow,+quad)": stats.ExtendedForms(),
		cvFormSet:               stats.ExtendedForms(),
	}
}

// FormSetOrder returns the ladder in presentation order.
func FormSetOrder() []string {
	return []string{
		"constant", "+linear", "+logarithmic",
		"paper (4 canonical)", "extended (+pow,+quad)", cvFormSet,
	}
}

// AblationForms measures how extrapolation accuracy depends on the set of
// canonical forms available to the fitter (the paper's future work proposes
// adding polynomial forms to push the <20 % element error further down).
func AblationForms(cfg Config) ([]FormsAblationRow, error) {
	target := TargetMachine()
	sets := FormSets()
	var rows []FormsAblationRow
	for _, spec := range PaperSpecs() {
		app, err := synthapp.ByName(spec.App)
		if err != nil {
			return nil, err
		}
		inputs, err := collectInputs(cfg.context(), app, spec.InputCounts, target, cfg.Collect)
		if err != nil {
			return nil, err
		}
		truth, err := collectSig(cfg.context(), app, spec.TargetCount, target, cfg.Collect, []int{0})
		if err != nil {
			return nil, err
		}
		for _, name := range FormSetOrder() {
			opt := extrap.Options{Forms: sets[name], CrossValidate: name == cvFormSet}
			res, err := extrap.Extrapolate(cfg.context(), inputs, spec.TargetCount, opt)
			if err != nil {
				return nil, fmt.Errorf("expt: %s with forms %q: %w", spec.App, name, err)
			}
			errs, err := extrap.Compare(&res.Signature.Traces[0], &truth.Traces[0])
			if err != nil {
				return nil, err
			}
			infl := extrap.InfluentialErrors(errs)
			row := FormsAblationRow{App: spec.App, FormSet: name}
			var sum float64
			for _, e := range infl {
				sum += e.AbsRelErr
				if e.AbsRelErr > row.MaxError {
					row.MaxError = e.AbsRelErr
				}
			}
			if len(infl) > 0 {
				row.MeanErr = sum / float64(len(infl))
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// InputCountAblationRow reports extrapolation quality for one choice of
// input core-count series.
type InputCountAblationRow struct {
	App      string
	Inputs   []int
	MaxError float64
	MeanErr  float64
}

// AblationInputCounts measures the effect of the number of input core
// counts (the paper notes that three "generally provided adequate
// accuracy").
func AblationInputCounts(cfg Config) ([]InputCountAblationRow, error) {
	target := TargetMachine()
	series := map[string][][]int{
		"specfem3d": {
			{96, 384},
			{96, 384, 1536},
			{96, 192, 384, 1536},
			{96, 192, 384, 768, 1536},
		},
		"uh3d": {
			{1024, 2048},
			{1024, 2048, 4096},
			{1024, 1536, 2048, 4096},
			{1024, 1536, 2048, 3072, 4096},
		},
	}
	var rows []InputCountAblationRow
	for _, spec := range PaperSpecs() {
		app, err := synthapp.ByName(spec.App)
		if err != nil {
			return nil, err
		}
		truth, err := collectSig(cfg.context(), app, spec.TargetCount, target, cfg.Collect, []int{0})
		if err != nil {
			return nil, err
		}
		for _, counts := range series[spec.App] {
			inputs, err := collectInputs(cfg.context(), app, counts, target, cfg.Collect)
			if err != nil {
				return nil, err
			}
			res, err := extrap.Extrapolate(cfg.context(), inputs, spec.TargetCount, extrap.Options{MinInputs: 2})
			if err != nil {
				return nil, err
			}
			errs, err := extrap.Compare(&res.Signature.Traces[0], &truth.Traces[0])
			if err != nil {
				return nil, err
			}
			infl := extrap.InfluentialErrors(errs)
			row := InputCountAblationRow{App: spec.App, Inputs: counts}
			var sum float64
			for _, e := range infl {
				sum += e.AbsRelErr
				if e.AbsRelErr > row.MaxError {
					row.MaxError = e.AbsRelErr
				}
			}
			if len(infl) > 0 {
				row.MeanErr = sum / float64(len(infl))
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// ClusteringAblationRow compares strategies for scaling the per-rank trace
// files when predicting from an extrapolated signature.
type ClusteringAblationRow struct {
	App      string
	Strategy string
	Runtime  float64
	Measured float64
	PctError float64
}

// AblationClustering evaluates the paper's Future Work proposal: instead of
// scaling every rank from the single slowest task's vector, cluster the
// ranks (k-means over their feature vectors), extrapolate each cluster's
// centroid trace, and price each rank from its own cluster. Three
// strategies are compared against the measured runtime:
//
//   - "uniform":   every rank priced from the dominant extrapolated trace
//     (the paper's current approach).
//   - "clustered": each rank priced from its cluster's extrapolated
//     centroid trace (the future-work proposal).
func AblationClustering(cfg Config) ([]ClusteringAblationRow, error) {
	target := TargetMachine()
	prof, err := buildProfile(cfg.context(), target)
	if err != nil {
		return nil, err
	}
	net, err := psins.NewNetwork(target.Network)
	if err != nil {
		return nil, err
	}
	var rows []ClusteringAblationRow
	for _, spec := range PaperSpecs() {
		app, err := synthapp.ByName(spec.App)
		if err != nil {
			return nil, err
		}
		// Collect all load classes at every input count.
		inputs, err := collectInputs(cfg.context(), app, spec.InputCounts, target, cfg.Collect)
		if err != nil {
			return nil, err
		}
		// Cluster the ranks of the smallest-count signature; with one trace
		// per load class, k = class count recovers the classes.
		k := app.NumClasses()
		rc, err := cluster.ClusterRanks(inputs[0], k, 1)
		if err != nil {
			return nil, err
		}
		// Extrapolate each cluster representative's trace series.
		classComp := make(map[int]*psins.Computation) // cluster index → convolution
		rankCluster := func(rank int) int {
			// Cluster assignment generalizes by load class: find the
			// cluster containing any rank of the same class.
			for c, ranks := range rc.Clusters {
				for _, r := range ranks {
					if app.ClassOf(r) == app.ClassOf(rank) {
						return c
					}
				}
			}
			return 0
		}
		for c, rep := range rc.Representative {
			sub := make([]*trace.Signature, len(inputs))
			for i, sig := range inputs {
				for j := range sig.Traces {
					if sig.Traces[j].Rank == rep {
						sub[i] = &trace.Signature{
							App:       sig.App,
							CoreCount: sig.CoreCount,
							Machine:   sig.Machine,
							Traces:    []trace.Trace{sig.Traces[j]},
						}
					}
				}
				if sub[i] == nil {
					return nil, fmt.Errorf("expt: representative rank %d missing at %d cores", rep, sig.CoreCount)
				}
			}
			res, err := extrap.Extrapolate(cfg.context(), sub, spec.TargetCount, extrap.Options{})
			if err != nil {
				return nil, err
			}
			comp, err := psins.Convolve(&res.Signature.Traces[0], prof)
			if err != nil {
				return nil, err
			}
			classComp[c] = comp
		}
		build, err := app.Build(spec.TargetCount)
		if err != nil {
			return nil, err
		}
		// Both pricing strategies replay the same compiled program.
		sched, err := psins.CompileBuild(app.Name(), spec.TargetCount, build)
		if err != nil {
			return nil, err
		}
		measured, err := measure(cfg.context(), app, spec.TargetCount, target, cfg.Collect)
		if err != nil {
			return nil, err
		}
		// Uniform: dominant cluster's trace for every rank.
		domCluster := rankCluster(0)
		uniform := psins.CostFromComputation(classComp[domCluster], nil)
		// Clustered: per-rank cluster pricing.
		blockSeconds := make(map[int]map[uint64]float64, len(classComp))
		for c, comp := range classComp {
			m := make(map[uint64]float64, len(comp.Blocks))
			for _, bt := range comp.Blocks {
				m[bt.BlockID] = bt.Seconds
			}
			blockSeconds[c] = m
		}
		clustered := func(rank int, blockID uint64, share float64) (float64, error) {
			m := blockSeconds[rankCluster(rank)]
			t, ok := m[blockID]
			if !ok {
				return 0, fmt.Errorf("expt: block %d missing from cluster trace", blockID)
			}
			return t * share, nil
		}
		for _, s := range []struct {
			name string
			cost psins.ComputeCost
		}{
			{"uniform", uniform},
			{"clustered", clustered},
		} {
			res, err := sched.Replay(cfg.context(), net, s.cost, nil)
			if err != nil {
				return nil, err
			}
			rows = append(rows, ClusteringAblationRow{
				App:      spec.App,
				Strategy: s.name,
				Runtime:  res.Runtime,
				Measured: measured.Runtime,
				PctError: 100 * math.Abs(res.Runtime-measured.Runtime) / measured.Runtime,
			})
		}
	}
	return rows, nil
}

// DistanceAblationRow reports extrapolation quality as a function of how
// far beyond the largest input the target lies.
type DistanceAblationRow struct {
	App      string
	Target   int
	Factor   float64 // target / largest input
	MaxError float64
	MeanErr  float64
}

// AblationDistance measures how extrapolation accuracy degrades with
// extrapolation distance: the paper extrapolates 4× (SPECFEM3D) and 2×
// (UH3D) beyond the largest input; this ablation pushes to 8× and beyond.
func AblationDistance(cfg Config) ([]DistanceAblationRow, error) {
	target := TargetMachine()
	factors := []int{2, 4, 8}
	var rows []DistanceAblationRow
	for _, spec := range PaperSpecs() {
		app, err := synthapp.ByName(spec.App)
		if err != nil {
			return nil, err
		}
		inputs, err := collectInputs(cfg.context(), app, spec.InputCounts, target, cfg.Collect)
		if err != nil {
			return nil, err
		}
		maxIn := spec.InputCounts[len(spec.InputCounts)-1]
		_, maxCores := app.CoreRange()
		for _, f := range factors {
			tgt := maxIn * f
			if tgt > maxCores {
				continue
			}
			res, err := extrap.Extrapolate(cfg.context(), inputs, tgt, extrap.Options{})
			if err != nil {
				return nil, err
			}
			truth, err := collectSig(cfg.context(), app, tgt, target, cfg.Collect, []int{0})
			if err != nil {
				return nil, err
			}
			errs, err := extrap.Compare(&res.Signature.Traces[0], &truth.Traces[0])
			if err != nil {
				return nil, err
			}
			infl := extrap.InfluentialErrors(errs)
			row := DistanceAblationRow{App: spec.App, Target: tgt, Factor: float64(f)}
			var sum float64
			for _, e := range infl {
				sum += e.AbsRelErr
				if e.AbsRelErr > row.MaxError {
					row.MaxError = e.AbsRelErr
				}
			}
			if len(infl) > 0 {
				row.MeanErr = sum / float64(len(infl))
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// SampleAblationRow reports extrapolation quality for one collection sample
// size.
type SampleAblationRow struct {
	App        string
	SampleRefs int
	MaxError   float64
}

// AblationSampleSize measures how the per-block simulation sample length
// trades collection cost against extrapolated-element accuracy.
func AblationSampleSize(cfg Config, samples []int) ([]SampleAblationRow, error) {
	if len(samples) == 0 {
		samples = []int{25_000, 50_000, 100_000, 200_000, 400_000}
	}
	target := TargetMachine()
	var rows []SampleAblationRow
	for _, spec := range PaperSpecs() {
		app, err := synthapp.ByName(spec.App)
		if err != nil {
			return nil, err
		}
		for _, s := range samples {
			opt := cfg.Collect
			opt.Sampling = pebil.FixedSampling(s, cfg.Collect.Sampling.MaxWarmRefs)
			inputs, err := collectInputs(cfg.context(), app, spec.InputCounts, target, opt)
			if err != nil {
				return nil, err
			}
			res, err := extrap.Extrapolate(cfg.context(), inputs, spec.TargetCount, extrap.Options{})
			if err != nil {
				return nil, err
			}
			truth, err := collectSig(cfg.context(), app, spec.TargetCount, target, opt, []int{0})
			if err != nil {
				return nil, err
			}
			errs, err := extrap.Compare(&res.Signature.Traces[0], &truth.Traces[0])
			if err != nil {
				return nil, err
			}
			rows = append(rows, SampleAblationRow{
				App:        spec.App,
				SampleRefs: s,
				MaxError:   extrap.MaxInfluentialError(errs),
			})
		}
	}
	return rows, nil
}

// CollectionModeRow compares the two signature-collection modes.
type CollectionModeRow struct {
	App  string
	Mode string // "private" or "shared"
	// MaxError is the max influential extrapolated-element error against
	// ground truth collected in the same mode.
	MaxError float64
	// PredErrPct is the extrapolated-trace runtime prediction error
	// against the detailed simulation (which always prices from private
	// steady-state counters).
	PredErrPct float64
}

// AblationCollectionMode compares private per-block cache simulation (this
// repository's default) against shared-hierarchy interleaved collection
// (the paper's Figure 2 pipeline shape, where blocks contend for capacity):
// does the extrapolation methodology care how the signatures were measured?
func AblationCollectionMode(cfg Config) ([]CollectionModeRow, error) {
	target := TargetMachine()
	prof, err := buildProfile(cfg.context(), target)
	if err != nil {
		return nil, err
	}
	var rows []CollectionModeRow
	for _, spec := range PaperSpecs() {
		app, err := synthapp.ByName(spec.App)
		if err != nil {
			return nil, err
		}
		measured, err := measure(cfg.context(), app, spec.TargetCount, target, cfg.Collect)
		if err != nil {
			return nil, err
		}
		for _, mode := range []struct {
			name   string
			shared bool
		}{
			{"private", false},
			{"shared", true},
		} {
			opt := cfg.Collect
			opt.SharedHierarchy = mode.shared
			inputs, err := collectInputs(cfg.context(), app, spec.InputCounts, target, opt)
			if err != nil {
				return nil, err
			}
			res, err := extrap.Extrapolate(cfg.context(), inputs, spec.TargetCount, extrap.Options{})
			if err != nil {
				return nil, err
			}
			truth, err := collectSig(cfg.context(), app, spec.TargetCount, target, opt, []int{0})
			if err != nil {
				return nil, err
			}
			errs, err := extrap.Compare(&res.Signature.Traces[0], &truth.Traces[0])
			if err != nil {
				return nil, err
			}
			pred, err := predictSig(cfg.context(), res.Signature, prof, app)
			if err != nil {
				return nil, err
			}
			rows = append(rows, CollectionModeRow{
				App:        spec.App,
				Mode:       mode.name,
				MaxError:   extrap.MaxInfluentialError(errs),
				PredErrPct: 100 * math.Abs(pred.Runtime-measured.Runtime) / measured.Runtime,
			})
		}
	}
	return rows, nil
}
