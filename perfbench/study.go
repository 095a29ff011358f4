package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"tracex"
	"tracex/internal/obs"
)

// studyTolerance bounds a study's |extrapolated - collected| / collected.
// Table I's errors on this pipeline are about 1%.
const studyTolerance = 0.05

// studyInstance serves pipeline-cold: a library Engine with its machine
// profile built and no store.
type studyInstance struct {
	eng      *tracex.Engine
	app      *tracex.App
	machine  tracex.MachineConfig
	prof     *tracex.Profile
	profDur  time.Duration
	profRefs float64
}

func setupStudy(ctx context.Context, _ runConfig) (instance, error) {
	app, err := tracex.LoadApp(benchApp)
	if err != nil {
		return nil, err
	}
	m, err := tracex.LoadMachine(benchMachine)
	if err != nil {
		return nil, err
	}
	eng := tracex.NewEngine()
	if err := eng.Err(); err != nil {
		return nil, err
	}
	s := &studyInstance{eng: eng, app: app, machine: m}
	before := counters(eng.Registry())["multimaps.refs"]
	t := time.Now()
	if s.prof, err = eng.Profile(ctx, m); err != nil {
		eng.Close()
		return nil, err
	}
	s.profDur = time.Since(t)
	s.profRefs = counters(eng.Registry())["multimaps.refs"] - before
	return s, nil
}

func (s *studyInstance) registry() *obs.Registry { return s.eng.Registry() }

func (s *studyInstance) profile() (time.Duration, float64) { return s.profDur, s.profRefs }

func (s *studyInstance) close() error { return s.eng.Close() }

func (s *studyInstance) do(ctx context.Context, o op, tr *tracer, sp opSpan) opResult {
	collect := tracex.CollectOptions{Sampling: tracex.FixedSampling(o.sampleRefs, studyWarmRefs)}
	var r opResult
	var row tracex.StudyRow
	if tr == nil {
		res, err := s.eng.Study(ctx, tracex.StudyRequest{
			App: s.app, Machine: s.machine,
			InputCounts: []int{o.b, 2 * o.b, 4 * o.b}, TargetCores: 8 * o.b,
			Collect: collect, WithTruth: true,
		})
		if err != nil {
			r.err = err
			return r
		}
		rows := res.Rows()
		if len(rows) != 1 {
			r.err = fmt.Errorf("study returned %d rows, want 1", len(rows))
			return r
		}
		row = rows[0]
	} else {
		before := counters(s.eng.Registry())
		var err error
		row, err = s.tracedStudy(ctx, o, collect, tr, sp)
		if err != nil {
			r.err = err
			return r
		}
		after := counters(s.eng.Registry())
		r.counts = opCounts{
			pebilRefs:   after["pebil.warm_refs"] + after["pebil.sample_refs"] - before["pebil.warm_refs"] - before["pebil.sample_refs"],
			psinsEvents: after["psins.events"] - before["psins.events"],
			extrapFits:  after["extrap.fits"] - before["extrap.fits"],
		}
	}
	r.out = fmt.Appendf(nil, "%d study b=%d refs=%d %x %x", o.index, o.b, o.sampleRefs,
		math.Float64bits(row.PredictedSeconds), math.Float64bits(row.ActualSeconds))
	r.errPct = 100 * row.AbsRelErr
	r.err = checkRow(row)
	return r
}

// checkRow is the study output check: finite positive runtimes and an
// extrapolation error within studyTolerance.
func checkRow(row tracex.StudyRow) error {
	for _, v := range []float64{row.PredictedSeconds, row.ActualSeconds, row.AbsRelErr} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("study row %+v is not finite", row)
		}
	}
	if row.PredictedSeconds <= 0 || row.ActualSeconds <= 0 {
		return fmt.Errorf("study row %+v has a non-positive runtime", row)
	}
	if row.AbsRelErr > studyTolerance {
		return fmt.Errorf("study error %.4f exceeds %.2f", row.AbsRelErr, studyTolerance)
	}
	return nil
}

// tracedStudy is Engine.Study split into its public calls so each can be
// timed: the four collections two at a time (as Study's worker pool runs
// them), then the extrapolation and the two predictions.
func (s *studyInstance) tracedStudy(ctx context.Context, o op, collect tracex.CollectOptions, tr *tracer, sp opSpan) (tracex.StudyRow, error) {
	counts := []int{o.b, 2 * o.b, 4 * o.b, 8 * o.b}
	sigs := make([]*tracex.Signature, len(counts))
	errs := make([]error, len(counts))
	next := make(chan int, len(counts))
	for i := range counts {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				tr.child(sp, "engine.collect", "pebil", func() string {
					var prov tracex.Provenance
					sigs[i], prov, errs[i] = s.eng.CollectSignatureFrom(ctx, s.app, counts[i], s.machine, collect)
					if errs[i] == nil && prov != tracex.FromCollected {
						errs[i] = fmt.Errorf("collection at %d cores came from the %s tier", counts[i], prov)
					}
					return string(prov)
				})
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return tracex.StudyRow{}, err
		}
	}
	var ext *tracex.ExtrapResult
	var err error
	tr.child(sp, "engine.extrapolate", "extrap", func() string {
		ext, err = s.eng.Extrapolate(ctx, sigs[:3], counts[3], tracex.ExtrapOptions{})
		return ""
	})
	if err != nil {
		return tracex.StudyRow{}, err
	}
	preds := make([]*tracex.Prediction, 2)
	for i, sig := range []*tracex.Signature{ext.Signature, sigs[3]} {
		tr.child(sp, "engine.predict", "psins", func() string {
			preds[i], err = s.eng.Predict(ctx, tracex.PredictRequest{Signature: sig, App: s.app, Profile: s.prof})
			return ""
		})
		if err != nil {
			return tracex.StudyRow{}, err
		}
	}
	row := tracex.StudyRow{TargetCores: counts[3], PredictedSeconds: preds[0].Runtime, ActualSeconds: preds[1].Runtime}
	row.AbsRelErr = math.Abs(row.PredictedSeconds-row.ActualSeconds) / row.ActualSeconds
	return row, nil
}
