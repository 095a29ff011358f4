package pebil

import (
	"fmt"
	"strconv"
	"strings"
)

// SamplingMode selects how the collector budgets simulated references per
// block. The zero value means "unset", which collects like the default
// fixed policy.
type SamplingMode string

const (
	// SamplingModeFixed simulates a fixed per-block budget: MaxWarmRefs
	// warm-up references (capped by the working set) followed by
	// SampleRefs measured references. This is the paper's original
	// collection discipline.
	SamplingModeFixed SamplingMode = "fixed"
	// SamplingModeAdaptive stratifies sampling per block: a warm-up that
	// stops when chunk hit rates stabilize, a pilot pass that estimates
	// per-block variance by batch means, and Neyman-style refinement
	// rounds until every block's relative standard error falls under
	// TargetRelErr. Near-identical blocks (k-means over pilot reuse
	// histograms) are refined only through a cluster representative. The
	// collected signature carries per-element measurement variances
	// (trace.SignatureUncertainty), which Predict's interval path
	// consumes.
	SamplingModeAdaptive SamplingMode = "adaptive"
)

// Default adaptive-policy tuning constants. Zero-valued adaptive fields
// take these at execution time.
const (
	// DefaultTargetRelErr is the per-block relative standard error target:
	// the batch-means SE of each level's cumulative hit rate, relative to
	// the level's miss rate (runtime sensitivity scales with misses), must
	// fall under it.
	DefaultTargetRelErr = 0.05
	// DefaultPilotRefs is the per-block pilot sample length the variance
	// estimate starts from.
	DefaultPilotRefs = 20_000
	// DefaultMinRefs is the smallest per-block measured sample an
	// adaptive collection settles for, converged or not.
	DefaultMinRefs = 20_000
	// DefaultMaxRefs caps the per-block measured sample of an adaptive
	// collection. It equals DefaultSampleRefs so an adaptive collection
	// never simulates more than the fixed default would.
	DefaultMaxRefs = DefaultSampleRefs
)

// SamplingPolicy is the collection budget: one value that says how the
// collector spends simulated references. It is a flat comparable struct
// (not an interface) because CollectorConfig participates in the engine's
// memoization keys; Mode selects which field group applies.
//
// The zero SamplingPolicy means "unset" and resolves to the default fixed
// policy (see CollectorConfig.Normalized).
type SamplingPolicy struct {
	// Mode selects fixed or adaptive budgeting ("" = unset).
	Mode SamplingMode

	// SampleRefs and MaxWarmRefs apply in fixed mode (0 = the
	// DefaultSampleRefs / DefaultMaxWarmRefs defaults). They must be zero
	// in adaptive mode.
	SampleRefs  int
	MaxWarmRefs int

	// TargetRelErr is the adaptive convergence target: the batch-means
	// standard error of each level's cumulative hit rate, relative to the
	// level's miss rate, must fall under it (0 = DefaultTargetRelErr).
	TargetRelErr float64
	// PilotRefs is the per-block pilot sample length (0 = DefaultPilotRefs).
	PilotRefs int
	// MinRefs and MaxRefs bound the per-block measured sample after
	// refinement (0 = DefaultMinRefs / DefaultMaxRefs).
	MinRefs int
	MaxRefs int
	// ClusterBlocks enables k-means clustering over pilot reuse
	// histograms: blocks whose pilot behavior matches a cluster
	// representative skip their own refinement and copy the
	// representative's measured rates with inflated variance.
	// AdaptiveSampling and ParseSamplingPolicy enable it by default.
	ClusterBlocks bool
}

// FixedSampling returns a fixed policy with the given per-block sample
// length and warm-up cap (≤ 0 selects the respective default).
func FixedSampling(sampleRefs, maxWarmRefs int) SamplingPolicy {
	return SamplingPolicy{Mode: SamplingModeFixed, SampleRefs: sampleRefs, MaxWarmRefs: maxWarmRefs}
}

// AdaptiveSampling returns an adaptive policy targeting the given relative
// standard error (≤ 0 selects DefaultTargetRelErr), with block clustering
// enabled and every other knob at its default.
func AdaptiveSampling(targetRelErr float64) SamplingPolicy {
	if targetRelErr <= 0 {
		targetRelErr = DefaultTargetRelErr
	}
	return SamplingPolicy{Mode: SamplingModeAdaptive, TargetRelErr: targetRelErr, ClusterBlocks: true}
}

// IsAdaptive reports whether the policy selects adaptive budgeting.
func (p SamplingPolicy) IsAdaptive() bool { return p.Mode == SamplingModeAdaptive }

// Validate checks the policy's internal consistency. Zero values are valid
// (they select defaults); fields of the other mode's group must be zero.
func (p SamplingPolicy) Validate() error {
	switch p.Mode {
	case "":
		if p != (SamplingPolicy{}) {
			return fmt.Errorf("pebil: sampling policy has fields set but no Mode")
		}
		return nil
	case SamplingModeFixed:
		if p.TargetRelErr != 0 || p.PilotRefs != 0 || p.MinRefs != 0 || p.MaxRefs != 0 || p.ClusterBlocks {
			return fmt.Errorf("pebil: fixed sampling policy sets adaptive fields")
		}
		if p.SampleRefs < 0 {
			return fmt.Errorf("pebil: negative SampleRefs %d", p.SampleRefs)
		}
		if p.MaxWarmRefs < 0 {
			return fmt.Errorf("pebil: negative MaxWarmRefs %d", p.MaxWarmRefs)
		}
		return nil
	case SamplingModeAdaptive:
		if p.SampleRefs != 0 || p.MaxWarmRefs != 0 {
			return fmt.Errorf("pebil: adaptive sampling policy sets fixed fields (SampleRefs/MaxWarmRefs)")
		}
		if !(p.TargetRelErr >= 0 && p.TargetRelErr <= 1) { // NaN fails both comparisons
			return fmt.Errorf("pebil: TargetRelErr %g outside (0, 1]", p.TargetRelErr)
		}
		if p.PilotRefs < 0 || p.MinRefs < 0 || p.MaxRefs < 0 {
			return fmt.Errorf("pebil: negative adaptive sampling bounds (pilot=%d min=%d max=%d)",
				p.PilotRefs, p.MinRefs, p.MaxRefs)
		}
		n := p.normalizedAdaptive()
		if n.MinRefs > n.MaxRefs {
			return fmt.Errorf("pebil: adaptive MinRefs %d exceeds MaxRefs %d", n.MinRefs, n.MaxRefs)
		}
		if n.PilotRefs > n.MaxRefs {
			return fmt.Errorf("pebil: adaptive PilotRefs %d exceeds MaxRefs %d", n.PilotRefs, n.MaxRefs)
		}
		return nil
	default:
		return fmt.Errorf("pebil: unknown sampling mode %q (want %q or %q)",
			p.Mode, SamplingModeFixed, SamplingModeAdaptive)
	}
}

// normalizedAdaptive fills adaptive defaults. Mode and ClusterBlocks are
// kept as given.
func (p SamplingPolicy) normalizedAdaptive() SamplingPolicy {
	if p.TargetRelErr == 0 {
		p.TargetRelErr = DefaultTargetRelErr
	}
	if p.PilotRefs == 0 {
		p.PilotRefs = DefaultPilotRefs
	}
	if p.MinRefs == 0 {
		p.MinRefs = DefaultMinRefs
	}
	if p.MaxRefs == 0 {
		p.MaxRefs = DefaultMaxRefs
	}
	return p
}

// Normalized returns the policy with defaults filled: fixed policies gain
// the default sample length and warm cap, adaptive policies the default
// pilot/min/max bounds and error target. Two policies with equal
// Normalized forms produce identical collections.
func (p SamplingPolicy) Normalized() SamplingPolicy {
	switch p.Mode {
	case SamplingModeFixed:
		if p.SampleRefs <= 0 {
			p.SampleRefs = DefaultSampleRefs
		}
		if p.MaxWarmRefs <= 0 {
			p.MaxWarmRefs = DefaultMaxWarmRefs
		}
		return p
	case SamplingModeAdaptive:
		return p.normalizedAdaptive()
	default:
		return p
	}
}

// String renders the normalized policy in the canonical parseable form,
// e.g. "fixed:400000,warm=2000000" or
// "adaptive:0.05,pilot=20000,min=20000,max=400000,cluster=on". It is the
// wire echo of the policy a collection actually ran with;
// ParseSamplingPolicy(p.String()) round-trips. The zero policy renders "".
func (p SamplingPolicy) String() string {
	switch p.Mode {
	case SamplingModeFixed:
		n := p.Normalized()
		return fmt.Sprintf("fixed:%d,warm=%d", n.SampleRefs, n.MaxWarmRefs)
	case SamplingModeAdaptive:
		n := p.Normalized()
		cluster := "off"
		if n.ClusterBlocks {
			cluster = "on"
		}
		return fmt.Sprintf("adaptive:%s,pilot=%d,min=%d,max=%d,cluster=%s",
			strconv.FormatFloat(n.TargetRelErr, 'g', -1, 64), n.PilotRefs, n.MinRefs, n.MaxRefs, cluster)
	default:
		return ""
	}
}

// ParseSamplingPolicy parses the user-facing policy syntax shared by the
// -sampling CLI flags and the "sampling" wire field:
//
//	fixed[:SAMPLE][,warm=WARM]
//	adaptive[:RELERR][,pilot=N][,min=N][,max=N][,cluster=on|off]
//
// e.g. "fixed:400000" or "adaptive:0.05". Adaptive clustering defaults to
// on. The empty string parses to the zero (unset) policy, which defers to
// the caller's default.
func ParseSamplingPolicy(s string) (SamplingPolicy, error) {
	if s == "" {
		return SamplingPolicy{}, nil
	}
	head, opts, hasOpts := strings.Cut(s, ",")
	mode, arg, hasArg := strings.Cut(head, ":")
	var p SamplingPolicy
	switch SamplingMode(mode) {
	case SamplingModeFixed:
		p.Mode = SamplingModeFixed
		if hasArg {
			n, err := strconv.Atoi(arg)
			if err != nil || n <= 0 {
				return SamplingPolicy{}, fmt.Errorf("pebil: sampling %q: bad sample length %q", s, arg)
			}
			p.SampleRefs = n
		}
	case SamplingModeAdaptive:
		p.Mode = SamplingModeAdaptive
		p.ClusterBlocks = true
		if hasArg {
			r, err := strconv.ParseFloat(arg, 64)
			if err != nil || !(r > 0 && r <= 1) { // NaN fails both comparisons
				return SamplingPolicy{}, fmt.Errorf("pebil: sampling %q: bad relative error target %q", s, arg)
			}
			p.TargetRelErr = r
		}
	default:
		return SamplingPolicy{}, fmt.Errorf("pebil: sampling %q: unknown mode %q (want %q or %q)",
			s, mode, SamplingModeFixed, SamplingModeAdaptive)
	}
	if !hasOpts {
		return p, nil
	}
	for _, opt := range strings.Split(opts, ",") {
		key, val, ok := strings.Cut(opt, "=")
		if !ok {
			return SamplingPolicy{}, fmt.Errorf("pebil: sampling %q: option %q is not key=value", s, opt)
		}
		atoi := func() (int, error) {
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return 0, fmt.Errorf("pebil: sampling %q: bad %s value %q", s, key, val)
			}
			return n, nil
		}
		var err error
		switch {
		case key == "warm" && p.Mode == SamplingModeFixed:
			p.MaxWarmRefs, err = atoi()
		case key == "pilot" && p.Mode == SamplingModeAdaptive:
			p.PilotRefs, err = atoi()
		case key == "min" && p.Mode == SamplingModeAdaptive:
			p.MinRefs, err = atoi()
		case key == "max" && p.Mode == SamplingModeAdaptive:
			p.MaxRefs, err = atoi()
		case key == "cluster" && p.Mode == SamplingModeAdaptive:
			switch val {
			case "on":
				p.ClusterBlocks = true
			case "off":
				p.ClusterBlocks = false
			default:
				err = fmt.Errorf("pebil: sampling %q: cluster must be on or off, got %q", s, val)
			}
		default:
			return SamplingPolicy{}, fmt.Errorf("pebil: sampling %q: unknown option %q for %s mode", s, key, p.Mode)
		}
		if err != nil {
			return SamplingPolicy{}, err
		}
	}
	if err := p.Validate(); err != nil {
		return SamplingPolicy{}, err
	}
	return p, nil
}

// Budget returns the warm-up and measured reference counts a fixed-policy
// collection simulates for one block: the warm-up touches the working set
// once (capped at the warm limit), the sample is the configured length
// capped at the block's full reference count, never below one. It is the
// single definition of the fixed budget, shared by the exact collector,
// the reuse-distance recorder and the golden-test oracle.
func (c CollectorConfig) Budget(refs, workingSetBytes float64) (warm, sample int) {
	pol := c.Normalized().Sampling
	warm = int(workingSetBytes / 8)
	if warm > pol.MaxWarmRefs {
		warm = pol.MaxWarmRefs
	}
	sample = pol.SampleRefs
	if full := int(refs); full < sample {
		sample = full // tiny blocks are simulated exactly
	}
	if sample < 1 {
		sample = 1
	}
	return warm, sample
}
