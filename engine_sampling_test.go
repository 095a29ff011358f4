package tracex

import (
	"reflect"
	"testing"
)

// These tests pin the store-key semantics of the sampling policy: a fixed
// policy renders the frozen identity format stores were written under
// before the policy existed (so they keep resolving), while an adaptive
// policy — which produces different hit rates — extends the identity string
// in a pinned, byte-stable way.

func TestOptIdentityFixedPolicyByteCompatible(t *testing.T) {
	// The default configuration renders exactly the pre-policy identity.
	def := CollectOptions{}
	const legacyDefault = "{SampleRefs:400000 MaxWarmRefs:2000000 Workers:0 BatchSize:0 SharedHierarchy:false}"
	if got := optIdentity(def.Normalized()); got != legacyDefault {
		t.Errorf("optIdentity(default) = %q, want %q", got, legacyDefault)
	}
	// A fixed policy fills its sample length and warm cap into the frozen
	// format; the default policy spelled out is the unset one.
	pol := CollectOptions{Sampling: FixedSampling(20_000, 60_000)}
	const legacyFixed = "{SampleRefs:20000 MaxWarmRefs:60000 Workers:0 BatchSize:0 SharedHierarchy:false}"
	if got := optIdentity(pol.Normalized()); got != legacyFixed {
		t.Errorf("optIdentity(fixed) = %q, want %q", got, legacyFixed)
	}
	m := testMachine(t, "bluewaters")
	if StoreKey("uh3d", 256, m, def) != StoreKey("uh3d", 256, m, CollectOptions{Sampling: FixedSampling(0, 0)}) {
		t.Error("the unset policy and the default fixed policy produced different store keys")
	}
}

func TestOptIdentityAdaptiveExtendsIdentity(t *testing.T) {
	// The adaptive rendering is pinned: signatures persisted under it must
	// keep resolving across releases.
	opt := CollectOptions{Sampling: AdaptiveSampling(0)}
	// The legacy ints stay zero: adaptive budgeting never resolves them,
	// and the policy string alone carries the sampling identity.
	const want = "{SampleRefs:0 MaxWarmRefs:0 Workers:0 BatchSize:0 SharedHierarchy:false}" +
		" Sampling:adaptive:0.05,pilot=20000,min=20000,max=400000,cluster=on"
	if got := optIdentity(opt.Normalized()); got != want {
		t.Errorf("optIdentity(adaptive) = %q, want %q", got, want)
	}
	// Adaptive keys are distinct from fixed ones, and distinct between
	// policies that differ in any parameter.
	m := testMachine(t, "bluewaters")
	fixed := CollectOptions{}
	if StoreKey("uh3d", 256, m, fixed) == StoreKey("uh3d", 256, m, opt) {
		t.Error("adaptive policy shares the fixed policy's store key")
	}
	tighter := CollectOptions{Sampling: AdaptiveSampling(0.01)}
	if StoreKey("uh3d", 256, m, opt) == StoreKey("uh3d", 256, m, tighter) {
		t.Error("different relative-error targets share a store key")
	}
	noCluster := AdaptiveSampling(0)
	noCluster.ClusterBlocks = false
	if StoreKey("uh3d", 256, m, opt) == StoreKey("uh3d", 256, m, CollectOptions{Sampling: noCluster}) {
		t.Error("cluster=on and cluster=off share a store key")
	}
}

// TestStoreKeyCoversEveryOption: every CollectOptions field shapes the
// signature, so one non-default valid value of each must move the store
// key. A field added without an entry here fails, and so does one that
// optIdentity forgets to render; a knob that only schedules the same
// simulations has no value that moves the key, so it cannot join them.
func TestStoreKeyCoversEveryOption(t *testing.T) {
	nonDefault := map[string]any{
		"Sampling":        FixedSampling(20_000, 0),
		"SharedHierarchy": true,
		"Model":           ModelAnalytical,
	}
	m := testMachine(t, "bluewaters")
	base := StoreKey("uh3d", 256, m, CollectOptions{})
	typ := reflect.TypeOf(CollectOptions{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		v, ok := nonDefault[name]
		if !ok {
			t.Errorf("CollectOptions.%s has no non-default value in this test", name)
			continue
		}
		delete(nonDefault, name)
		var opt CollectOptions
		reflect.ValueOf(&opt).Elem().Field(i).Set(reflect.ValueOf(v))
		if err := opt.Validate(); err != nil {
			t.Errorf("CollectOptions.%s = %v is invalid: %v", name, v, err)
			continue
		}
		if StoreKey("uh3d", 256, m, opt) == base {
			t.Errorf("CollectOptions.%s = %v leaves the store key unchanged", name, v)
		}
	}
	for name := range nonDefault {
		t.Errorf("entry %q names no CollectOptions field", name)
	}
}
