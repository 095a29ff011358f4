package tracex

import (
	"context"

	"tracex/internal/cache"
	"tracex/internal/calibrate"
	"tracex/internal/memsim"
)

// Machine-calibration re-exports: solving the machine-profile inverse
// problem (fit uncertain machine parameters to observed timings), the
// fitted-model methodology of the paper's reference [27].
type (
	// Observation pairs cache accounting with an observed execution time.
	Observation = calibrate.Observation
	// CalibrationResult reports a calibration run.
	CalibrationResult = calibrate.Result
	// MachineParameter names a tunable machine parameter.
	MachineParameter = calibrate.Parameter
	// ParameterBounds is a parameter's legal search interval.
	ParameterBounds = calibrate.Bounds
	// CacheCounters is a cache-simulator accounting snapshot.
	CacheCounters = cache.Counters
)

// Tunable machine parameters.
const (
	ParamMLP          = calibrate.MLP
	ParamMemBandwidth = calibrate.MemBandwidth
	ParamMemLatency   = calibrate.MemLatency
)

// CalibrateMachine tunes the listed parameters of cfg so the memory timing
// model reproduces the observations. A nil bounds map uses the defaults.
func CalibrateMachine(cfg MachineConfig, obs []Observation, params []MachineParameter,
	bounds map[MachineParameter]ParameterBounds) (*CalibrationResult, error) {
	return calibrate.Calibrate(cfg, obs, params, bounds)
}

// ObserveBlocks produces calibration observations for every block of the
// application at one core count on the given machine: the block's sampled
// cache accounting paired with its detailed-model execution time. In a
// real deployment the times would come from hardware measurement; here the
// detailed simulator plays that role. The counters come from the engine's
// collector arena.
func (e *Engine) ObserveBlocks(ctx context.Context, app *App, cores int, cfg MachineConfig, opt CollectOptions) ([]Observation, error) {
	if err := e.usable(); err != nil {
		return nil, err
	}
	counters, err := e.collector.Counters(e.obsCtx(ctx), app, cores, cfg, opt)
	if err != nil {
		return nil, err
	}
	model, err := memsim.New(cfg)
	if err != nil {
		return nil, err
	}
	snaps := make([]cache.Counters, len(counters))
	for i := range counters {
		snaps[i] = counters[i].Counters
	}
	cycles, err := model.BlockCycles(snaps)
	if err != nil {
		return nil, err
	}
	obs := make([]Observation, 0, len(counters))
	for i := range counters {
		obs = append(obs, Observation{Counters: snaps[i], Seconds: model.Seconds(cycles[i])})
	}
	return obs, nil
}
