package expt

import (
	"fmt"
	"math"
	"sort"

	"tracex"
	"tracex/internal/commx"
	"tracex/internal/extrap"
	"tracex/internal/machine"
	"tracex/internal/memsim"
	"tracex/internal/mpi"
	"tracex/internal/psins"
	"tracex/internal/synthapp"
)

// WeakScalingRow compares extrapolation quality between a strong-scaled and
// a weak-scaled variant of the same computation.
type WeakScalingRow struct {
	App      string
	Regime   string // "strong" or "weak"
	MaxError float64
	MeanErr  float64
	// PredErrPct is the runtime prediction error (extrapolated trace vs
	// detailed simulation) at the target count.
	PredErrPct float64
}

// WeakScaling addresses the paper's Future Work question about weak-scaled
// problems: extrapolate both stencil variants from 64/128/256 to 1024 cores
// and compare element errors and runtime prediction errors. Under weak
// scaling most per-rank elements are constant, so the methodology should do
// at least as well as under strong scaling.
func WeakScaling(cfg Config) ([]WeakScalingRow, error) {
	target := TargetMachine()
	prof, err := buildProfile(cfg.context(), target)
	if err != nil {
		return nil, err
	}
	inputCounts := []int{64, 128, 256}
	const targetCount = 1024
	var rows []WeakScalingRow
	for _, tc := range []struct {
		app    string
		regime string
	}{
		{"stencil3d", "strong"},
		{"stencil3dweak", "weak"},
	} {
		app, err := synthapp.ByName(tc.app)
		if err != nil {
			return nil, err
		}
		inputs, err := collectInputs(cfg.context(), app, inputCounts, target, cfg.Collect)
		if err != nil {
			return nil, err
		}
		res, err := extrap.Extrapolate(cfg.context(), inputs, targetCount, extrap.Options{})
		if err != nil {
			return nil, err
		}
		truth, err := collectSig(cfg.context(), app, targetCount, target, cfg.Collect, []int{0})
		if err != nil {
			return nil, err
		}
		errs, err := extrap.Compare(&res.Signature.Traces[0], &truth.Traces[0])
		if err != nil {
			return nil, err
		}
		infl := extrap.InfluentialErrors(errs)
		row := WeakScalingRow{App: tc.app, Regime: tc.regime}
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
		pred, err := predictSig(cfg.context(), res.Signature, prof, app)
		if err != nil {
			return nil, err
		}
		measured, err := measure(cfg.context(), app, targetCount, target, cfg.Collect)
		if err != nil {
			return nil, err
		}
		row.PredErrPct = 100 * math.Abs(pred.Runtime-measured.Runtime) / measured.Runtime
		rows = append(rows, row)
	}
	return rows, nil
}

// CrossArchRow compares one application's predicted vs measured runtime on
// one candidate machine.
type CrossArchRow struct {
	App       string
	Machine   string
	CoreCount int
	Predicted float64
	Measured  float64
	PctError  float64
}

// CrossArch exercises the paper's cross-architectural prediction claim
// (§III-A): the same application is characterized against several target
// machines — none of which it ever "ran" on — by simulating each target's
// cache structure, and the framework must predict each machine's runtime
// well enough to rank them correctly. Both headline applications are
// evaluated on the Kraken and Blue Waters models at a moderate scale.
func CrossArch(cfg Config) ([]CrossArchRow, error) {
	machines := []machine.Config{machine.Kraken(), machine.BlueWatersP1(), machine.SandyBridge()}
	var rows []CrossArchRow
	for _, spec := range PaperSpecs() {
		app, err := synthapp.ByName(spec.App)
		if err != nil {
			return nil, err
		}
		p := spec.InputCounts[len(spec.InputCounts)-1] // largest traced count
		for _, sys := range machines {
			prof, err := buildProfile(cfg.context(), sys)
			if err != nil {
				return nil, err
			}
			sig, err := collectSig(cfg.context(), app, p, sys, cfg.Collect, nil)
			if err != nil {
				return nil, err
			}
			pred, err := predictSig(cfg.context(), sig, prof, app)
			if err != nil {
				return nil, err
			}
			measured, err := measure(cfg.context(), app, p, sys, cfg.Collect)
			if err != nil {
				return nil, err
			}
			rows = append(rows, CrossArchRow{
				App:       spec.App,
				Machine:   sys.Name,
				CoreCount: p,
				Predicted: pred.Runtime,
				Measured:  measured.Runtime,
				PctError:  100 * math.Abs(pred.Runtime-measured.Runtime) / measured.Runtime,
			})
		}
	}
	return rows, nil
}

// ScalingCurveRow is one point of a predicted strong-scaling curve.
type ScalingCurveRow struct {
	App       string
	CoreCount int
	// Predicted is the runtime from the extrapolated trace; Measured is
	// the detailed simulation at the same count.
	Predicted, Measured float64
	PctError            float64
	// Efficiency is the parallel efficiency relative to the smallest
	// point of the curve: T(P0)*P0 / (T(P)*P), from the prediction.
	Efficiency float64
}

// ScalingCurve is the framework's day-job use case: from one set of cheap
// small-count traces, predict the application's whole strong-scaling curve
// — one extrapolation per target count — and read off where parallel
// efficiency collapses, checking each point against the detailed
// simulation.
func ScalingCurve(cfg Config) ([]ScalingCurveRow, error) {
	target := TargetMachine()
	prof, err := buildProfile(cfg.context(), target)
	if err != nil {
		return nil, err
	}
	app, err := synthapp.ByName("uh3d")
	if err != nil {
		return nil, err
	}
	inputCounts := []int{1024, 2048, 4096}
	inputs, err := collectInputs(cfg.context(), app, inputCounts, target, cfg.Collect)
	if err != nil {
		return nil, err
	}
	targets := []int{5120, 6144, 8192, 12288, 16384}
	var rows []ScalingCurveRow
	for _, p := range targets {
		res, err := extrap.Extrapolate(cfg.context(), inputs, p, extrap.Options{})
		if err != nil {
			return nil, err
		}
		pred, err := predictSig(cfg.context(), res.Signature, prof, app)
		if err != nil {
			return nil, err
		}
		measured, err := measure(cfg.context(), app, p, target, cfg.Collect)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ScalingCurveRow{
			App:       app.Name(),
			CoreCount: p,
			Predicted: pred.Runtime,
			Measured:  measured.Runtime,
			PctError:  100 * math.Abs(pred.Runtime-measured.Runtime) / measured.Runtime,
		})
	}
	// Efficiency relative to the first curve point.
	base := rows[0]
	for i := range rows {
		r := &rows[i]
		r.Efficiency = base.Predicted * float64(base.CoreCount) /
			(r.Predicted * float64(r.CoreCount))
	}
	return rows, nil
}

// EnergyRow reports the energy estimate and DVFS optimum for one
// application at target scale, priced from the extrapolated trace.
type EnergyRow struct {
	App         string
	CoreCount   int
	Joules      float64
	AvgWatts    float64
	OptEnergyF  float64 // frequency scale minimizing energy
	OptEnergyJ  float64
	OptEDPF     float64 // frequency scale minimizing energy-delay product
	NominalTime float64
}

// EnergyDVFS prices the dominant task's energy at target scale from the
// *extrapolated* trace (never collected at that count) and sweeps core
// frequency for the energy- and EDP-optimal operating points — the energy
// use case the paper's feature-vector design anticipates.
func EnergyDVFS(cfg Config) ([]EnergyRow, error) {
	target := TargetMachine()
	prof, err := buildProfile(cfg.context(), target)
	if err != nil {
		return nil, err
	}
	model := tracex.DefaultEnergyModel(target)
	scales := []float64{0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2}
	var rows []EnergyRow
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
		rep, err := tracex.EstimateEnergy(res.Signature, prof, model)
		if err != nil {
			return nil, err
		}
		pts, err := tracex.DVFSSweep(res.Signature, prof, model, scales)
		if err != nil {
			return nil, err
		}
		minE, minEDP := tracex.OptimalFrequency(pts)
		rows = append(rows, EnergyRow{
			App:         spec.App,
			CoreCount:   spec.TargetCount,
			Joules:      rep.Joules,
			AvgWatts:    rep.AvgWatts,
			OptEnergyF:  minE.Scale,
			OptEnergyJ:  minE.Joules,
			OptEDPF:     minEDP.Scale,
			NominalTime: rep.Seconds,
		})
	}
	return rows, nil
}

// PrefetchRow compares an application's predicted runtime on a target with
// and without a hardware next-line prefetcher.
type PrefetchRow struct {
	App        string
	CoreCount  int
	Baseline   float64 // predicted runtime, no prefetcher
	Prefetched float64 // predicted runtime with the prefetcher
	SpeedupPct float64
}

// PrefetchExploration extends Table III's design-exploration use case to a
// different hardware knob: would the target benefit from a stream hardware
// prefetcher? Signatures are collected against both memory-system variants
// (neither of which needs to exist), extrapolated to target scale, and
// convolved with each variant's own MultiMAPS profile. The study uses a
// latency-bound variant of the target (MLP 2 instead of 6): a prefetcher
// converts stream latency into bandwidth, so it pays off exactly when the
// core cannot keep enough misses in flight on its own. Streaming-heavy
// codes should speed up; random-access-heavy codes should barely move.
func PrefetchExploration(cfg Config) ([]PrefetchRow, error) {
	base := TargetMachine()
	base.MLP = 2
	base.Name = "bluewaters-mlp2"
	pf := machine.WithPrefetch(base)
	var rows []PrefetchRow
	for _, spec := range PaperSpecs() {
		app, err := synthapp.ByName(spec.App)
		if err != nil {
			return nil, err
		}
		row := PrefetchRow{App: spec.App, CoreCount: spec.TargetCount}
		for _, tc := range []struct {
			sys  machine.Config
			dest *float64
		}{
			{base, &row.Baseline},
			{pf, &row.Prefetched},
		} {
			prof, err := buildProfile(cfg.context(), tc.sys)
			if err != nil {
				return nil, err
			}
			inputs, err := collectInputs(cfg.context(), app, spec.InputCounts, tc.sys, cfg.Collect)
			if err != nil {
				return nil, err
			}
			res, err := extrap.Extrapolate(cfg.context(), inputs, spec.TargetCount, extrap.Options{})
			if err != nil {
				return nil, err
			}
			pred, err := predictSig(cfg.context(), res.Signature, prof, app)
			if err != nil {
				return nil, err
			}
			*tc.dest = pred.Runtime
		}
		row.SpeedupPct = 100 * (row.Baseline - row.Prefetched) / row.Baseline
		rows = append(rows, row)
	}
	return rows, nil
}

// CommExtrapRow reports communication-trace extrapolation quality for one
// application.
type CommExtrapRow struct {
	App string
	// FieldErrors maps each communication summary field to its absolute
	// relative extrapolation error at the target count.
	FieldErrors map[string]float64
	// SynthCommSeconds and ActualCommSeconds compare the replayed
	// communication time of the synthesized versus the actual program
	// (compute events zeroed out).
	SynthCommSeconds, ActualCommSeconds float64
}

// SortedFieldNames returns the row's field names in stable order.
func (r CommExtrapRow) SortedFieldNames() []string {
	names := make([]string, 0, len(r.FieldErrors))
	for n := range r.FieldErrors {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CommExtrap runs the ScalaExtrap-style complement (paper §II, Wu et al.):
// summarize the communication of the three small-count runs, extrapolate
// the summary to the target count, synthesize a communication program, and
// compare it — structurally and under replay — against the actual
// target-count communication.
func CommExtrap(cfg Config) ([]CommExtrapRow, error) {
	target := TargetMachine()
	net, err := psins.NewNetwork(target.Network)
	if err != nil {
		return nil, err
	}
	zeroCost := func(rank int, blockID uint64, share float64) (float64, error) { return 0, nil }
	// replay replays the n-rank program that build describes with zeroed
	// compute, for a like-for-like communication time.
	replay := func(app string, n int, build func(*mpi.Builder)) (float64, error) {
		sched, err := psins.CompileBuild(app, n, build)
		if err != nil {
			return 0, err
		}
		res, err := sched.Replay(cfg.context(), net, zeroCost, nil)
		if err != nil {
			return 0, err
		}
		return res.Runtime, nil
	}
	var rows []CommExtrapRow
	for _, spec := range PaperSpecs() {
		app, err := synthapp.ByName(spec.App)
		if err != nil {
			return nil, err
		}
		// summarize summarizes rank 0 of the app's program at p cores, and
		// returns the program's description.
		summarize := func(p int) (commx.Profile, func(*mpi.Builder), error) {
			build, err := app.Build(p)
			if err != nil {
				return commx.Profile{}, nil, err
			}
			prog, err := mpi.Compile(app.Name(), p, build)
			if err != nil {
				return commx.Profile{}, nil, err
			}
			cp, err := commx.Summarize(prog, 0)
			return cp, build, err
		}
		var profiles []commx.Profile
		for _, p := range spec.InputCounts {
			cp, _, err := summarize(p)
			if err != nil {
				return nil, err
			}
			profiles = append(profiles, cp)
		}
		ext, err := commx.Extrapolate(profiles, spec.TargetCount)
		if err != nil {
			return nil, err
		}
		actual, actualBuild, err := summarize(spec.TargetCount)
		if err != nil {
			return nil, err
		}
		row := CommExtrapRow{
			App:         spec.App,
			FieldErrors: commx.CompareProfiles(ext.Profile, actual),
		}
		synthBuild, err := commx.Synthesize(ext.Profile)
		if err != nil {
			return nil, fmt.Errorf("expt: synthesizing %s comm: %w", spec.App, err)
		}
		if row.SynthCommSeconds, err = replay(spec.App+"-comm", ext.Profile.CoreCount, synthBuild); err != nil {
			return nil, err
		}
		if row.ActualCommSeconds, err = replay(app.Name(), spec.TargetCount, actualBuild); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// CalibrationRow reports the machine-calibration demonstration.
type CalibrationRow struct {
	App string
	// DistortedErr and CalibratedErr are the timing-model errors before
	// and after calibration, starting from a deliberately wrong prior.
	DistortedErr, CalibratedErr float64
	// RecoveredMLP and TrueMLP compare the recovered parameter.
	RecoveredMLP, TrueMLP float64
}

// CalibrationDemo demonstrates the machine-profile inverse problem (the
// paper's reference [27] fits memory models to observations): block timings
// "measured" on the true target seed a calibration that starts from a
// machine description with a deliberately wrong memory-level parallelism
// and must recover it.
func CalibrationDemo(cfg Config) ([]CalibrationRow, error) {
	truth := TargetMachine()
	model, err := memsim.New(truth)
	if err != nil {
		return nil, err
	}
	var rows []CalibrationRow
	for _, spec := range PaperSpecs() {
		app, err := synthapp.ByName(spec.App)
		if err != nil {
			return nil, err
		}
		// Observed block timings on the true machine at every input count.
		var obs []tracex.Observation
		for _, p := range spec.InputCounts {
			counters, err := collectCounters(cfg.context(), app, p, truth, cfg.Collect)
			if err != nil {
				return nil, err
			}
			for _, bc := range counters {
				cy, err := model.Cycles(bc.Counters)
				if err != nil {
					return nil, err
				}
				obs = append(obs, tracex.Observation{
					Counters: bc.Counters,
					Seconds:  model.Seconds(cy),
				})
			}
		}
		distorted := truth
		distorted.MLP = 2 // wrong prior
		res, err := tracex.CalibrateMachine(distorted, obs,
			[]tracex.MachineParameter{tracex.ParamMLP}, nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, CalibrationRow{
			App:           spec.App,
			DistortedErr:  res.Before,
			CalibratedErr: res.After,
			RecoveredMLP:  res.Config.MLP,
			TrueMLP:       truth.MLP,
		})
	}
	return rows, nil
}
