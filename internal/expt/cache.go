package expt

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"tracex"
	"tracex/internal/machine"
	"tracex/internal/memo"
	"tracex/internal/pebil"
	"tracex/internal/synthapp"
	"tracex/internal/trace"
)

// harness returns the Engine and Collector every experiment shares, built
// on first use and kept for the life of the process. The Engine memoizes
// machine profiles and runs predictions and detailed simulations; the
// Collector runs the rank-selected collections and raw block counters the
// Engine does not expose, so all experiments share its worker arena.
var harness = sync.OnceValues(func() (*tracex.Engine, *pebil.Collector) {
	return tracex.NewEngine(), pebil.NewCollector(0)
})

// Collection is deterministic — the same (application, core count, machine,
// options, ranks) always produces the identical signature — so the harness
// memoizes collections process-wide. Experiments share inputs heavily
// (Table I, the §IV claim and every ablation all trace the same paper-scale
// runs), and the caches turn those repeats into lookups; concurrent
// requests for one collection share a single run.
var (
	sigMemo     = memo.New[collectKey, *trace.Signature](-1)
	counterMemo = memo.New[collectKey, []pebil.BlockCounters](-1)
)

// collectKey identifies one memoized collection, like the engine's own
// signature key: the normalized collection options (so every sampling
// policy, cache model and hierarchy mode is its own entry), the machine
// configuration's fingerprint and the sorted rank selection.
type collectKey struct {
	app     string
	cores   int
	machine string // machine.Config.Fingerprint()
	opt     pebil.CollectorConfig
	ranks   string
}

func memoKey(app *synthapp.App, p int, target machine.Config, opt pebil.CollectorConfig, ranks []int) collectKey {
	r := append([]int(nil), ranks...)
	sort.Ints(r)
	return collectKey{app: app.Name(), cores: p, machine: target.Fingerprint(), opt: opt.Normalized(), ranks: fmt.Sprint(r)}
}

// collectSig is Collector.Collect with process-wide memoization. Callers must
// treat the returned signature as read-only.
func collectSig(ctx context.Context, app *synthapp.App, p int, target machine.Config, opt pebil.CollectorConfig, ranks []int) (*trace.Signature, error) {
	sig, _, err := sigMemo.Do(ctx, memoKey(app, p, target, opt, ranks), func() (*trace.Signature, error) {
		_, col := harness()
		return col.Collect(ctx, app, p, target, ranks, opt)
	})
	return sig, err
}

// collectInputs memoizes a series of collections.
func collectInputs(ctx context.Context, app *synthapp.App, counts []int, target machine.Config, opt pebil.CollectorConfig) ([]*trace.Signature, error) {
	out := make([]*trace.Signature, len(counts))
	for i, p := range counts {
		sig, err := collectSig(ctx, app, p, target, opt, nil)
		if err != nil {
			return nil, fmt.Errorf("expt: collecting at %d cores: %w", p, err)
		}
		out[i] = sig
	}
	return out, nil
}

// collectCounters is Collector.Counters with process-wide memoization.
// Callers must treat the returned slice as read-only.
func collectCounters(ctx context.Context, app *synthapp.App, p int, target machine.Config, opt pebil.CollectorConfig) ([]pebil.BlockCounters, error) {
	cs, _, err := counterMemo.Do(ctx, memoKey(app, p, target, opt, nil), func() ([]pebil.BlockCounters, error) {
		_, col := harness()
		return col.Counters(ctx, app, p, target, opt)
	})
	return cs, err
}

// buildProfile returns the machine's MultiMAPS profile, memoized by the
// harness Engine.
func buildProfile(ctx context.Context, cfg machine.Config) (*machine.Profile, error) {
	eng, _ := harness()
	return eng.Profile(ctx, cfg)
}

// predictSig runs one harness-Engine prediction from an existing signature
// and profile.
func predictSig(ctx context.Context, sig *trace.Signature, prof *machine.Profile, app *synthapp.App) (*tracex.Prediction, error) {
	eng, _ := harness()
	return eng.Predict(ctx, tracex.PredictRequest{Signature: sig, Profile: prof, App: app})
}

// measure runs the harness Engine's detailed execution simulation.
func measure(ctx context.Context, app *synthapp.App, p int, target machine.Config, opt pebil.CollectorConfig) (*tracex.Prediction, error) {
	eng, _ := harness()
	return eng.Measure(ctx, app, p, target, opt)
}
