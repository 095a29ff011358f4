package expt

import (
	"testing"

	"tracex/internal/pebil"
	"tracex/internal/synthapp"
)

// TestMemoKeyCoversIdentity pins the collection memo's key to the whole
// collection identity: every cache model, sampling policy, sample size and
// hierarchy mode is its own entry, as are machines that differ only in
// configuration and different rank selections, while equivalent spellings
// of one identity share an entry.
func TestMemoKeyCoversIdentity(t *testing.T) {
	app := synthapp.Stencil3D()
	bw := TargetMachine()
	distinct := []pebil.CollectorConfig{
		{},
		{Model: pebil.ModelAnalytical},
		{Sampling: pebil.AdaptiveSampling(0)},
		{Sampling: pebil.FixedSampling(25_000, 0)},
		{Sampling: pebil.FixedSampling(50_000, 0)},
		{Sampling: pebil.FixedSampling(0, 100_000)},
		{SharedHierarchy: true},
	}
	for i := range distinct {
		for j := i + 1; j < len(distinct); j++ {
			if memoKey(app, 64, bw, distinct[i], nil) == memoKey(app, 64, bw, distinct[j], nil) {
				t.Errorf("%+v and %+v share a memo key", distinct[i], distinct[j])
			}
		}
	}

	spelled := pebil.CollectorConfig{Sampling: pebil.FixedSampling(pebil.DefaultSampleRefs, 0), Model: pebil.ModelExact}
	if memoKey(app, 64, bw, pebil.CollectorConfig{}, nil) != memoKey(app, 64, bw, spelled, nil) {
		t.Error("the default policy and model spelled out are a different memo entry")
	}
	prefetch := bw
	prefetch.Prefetch = true
	if memoKey(app, 64, bw, pebil.CollectorConfig{}, nil) == memoKey(app, 64, prefetch, pebil.CollectorConfig{}, nil) {
		t.Error("two configurations of one machine name share a memo key")
	}
	if memoKey(app, 64, bw, pebil.CollectorConfig{}, nil) == memoKey(app, 64, bw, pebil.CollectorConfig{}, []int{0}) {
		t.Error("the default ranks and rank 0 alone share a memo key")
	}
	if memoKey(app, 64, bw, pebil.CollectorConfig{}, []int{1, 0}) != memoKey(app, 64, bw, pebil.CollectorConfig{}, []int{0, 1}) {
		t.Error("rank order changed the memo key")
	}
}
