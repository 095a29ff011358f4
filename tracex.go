// Package tracex is a reproduction of "Inferring Large-scale Computation
// Behavior via Trace Extrapolation" (Carrington, Laurenzano, Tiwari —
// IPDPS Workshops 2013): a library for characterizing an MPI application's
// large-scale computation behaviour from traces collected at a series of
// smaller core counts.
//
// The package is a facade over the full pipeline:
//
//	machine config ──MultiMAPS──▶ machine profile (bandwidth surface)
//	proxy app @ P ──instrumentation + cache sim──▶ application signature
//	signatures @ P1..P3 ──canonical-form fits──▶ signature @ Ptarget
//	signature × profile ──PSiNS convolution + replay──▶ predicted runtime
//	proxy app @ Ptarget ──detailed execution simulation──▶ measured runtime
//
// The heavy lifting lives in the internal packages (stats, cache, memsim,
// machine, multimaps, trace, mpi, psins, synthapp, pebil, extrap, cluster);
// this package wires them together and re-exports the data types a caller
// needs via type aliases.
//
// The pipeline is orchestrated by Engine, which memoizes machine profiles
// and application signatures, deduplicates concurrent identical work, and
// fans batch requests out across a bounded worker pool. Every pipeline
// step is an Engine method; construct one with NewEngine and Close it when
// done.
package tracex

import (
	"tracex/internal/cache"
	"tracex/internal/cluster"
	"tracex/internal/extrap"
	"tracex/internal/machine"
	"tracex/internal/pebil"
	"tracex/internal/psins"
	"tracex/internal/stats"
	"tracex/internal/synthapp"
	"tracex/internal/trace"
	"tracex/internal/uncert"
)

// Re-exported data types. Aliases keep the public API nameable by external
// importers while the implementations live in internal packages.
type (
	// Signature is an application signature: trace files from the MPI
	// ranks of one run against one target machine.
	Signature = trace.Signature
	// Trace is the summary trace file of one MPI task.
	Trace = trace.Trace
	// Block is one basic block's entry in a trace file.
	Block = trace.Block
	// FeatureVector holds the per-block features the methodology models.
	FeatureVector = trace.FeatureVector
	// MachineConfig describes a target system's hardware.
	MachineConfig = machine.Config
	// CacheLevel configures one level of a machine's cache hierarchy
	// (MachineConfig.Caches). Exported so geometry sweeps can construct
	// candidate hierarchies directly.
	CacheLevel = cache.LevelConfig
	// Profile is a machine profile (MultiMAPS surface plus rates).
	Profile = machine.Profile
	// App is a synthetic proxy application.
	App = synthapp.App
	// ExtrapResult is the product of a trace extrapolation.
	ExtrapResult = extrap.Result
	// ElementError compares an extrapolated element with ground truth.
	ElementError = extrap.ElementError
	// ExtrapOptions tunes the extrapolation.
	ExtrapOptions = extrap.Options
	// CollectOptions says how a signature is collected. It aliases
	// pebil.CollectorConfig: Sampling, SharedHierarchy and Model, each of
	// which shapes the result. The zero value is the library default.
	CollectOptions = pebil.CollectorConfig
	// SamplingPolicy is the typed reference-budget policy on
	// CollectOptions.Sampling: a fixed per-block budget or adaptive
	// stratified sampling with per-block error bounds (see FixedSampling,
	// AdaptiveSampling, ParseSamplingPolicy).
	SamplingPolicy = pebil.SamplingPolicy
	// SamplingMode tags a SamplingPolicy as fixed or adaptive.
	SamplingMode = pebil.SamplingMode
	// CacheModel selects how per-block hit rates are produced during
	// collection: ModelExact simulates the target hierarchy, ModelAnalytical
	// derives the rates from a reuse-distance signature.
	CacheModel = pebil.CacheModel
	// ReuseSignature is a machine-independent application profile: per-block
	// reuse-distance histograms the analytical cache model converts into hit
	// rates for any geometry.
	ReuseSignature = trace.ReuseSignature
	// ReuseHistogram is one block's LRU stack-distance histogram.
	ReuseHistogram = trace.ReuseHistogram
	// Form is a canonical scaling-function family.
	Form = stats.Form
)

// Cache-model names for CollectOptions.Model.
const (
	// ModelExact simulates every reference against the target hierarchy —
	// the fidelity oracle. The zero CacheModel means ModelExact.
	ModelExact = pebil.ModelExact
	// ModelAnalytical records one geometry-free reuse-distance signature
	// and converts it into per-level hit rates for any geometry
	// analytically.
	ModelAnalytical = pebil.ModelAnalytical
	// SamplingModeFixed selects the fixed per-block budget (the paper's
	// original collection discipline).
	SamplingModeFixed = pebil.SamplingModeFixed
	// SamplingModeAdaptive selects adaptive stratified sampling with
	// per-block error bounds and cluster representatives.
	SamplingModeAdaptive = pebil.SamplingModeAdaptive
)

// FixedSampling returns a fixed sampling policy with the given per-block
// sample length and warm-up cap (≤ 0 selects the defaults).
func FixedSampling(sampleRefs, maxWarmRefs int) SamplingPolicy {
	return pebil.FixedSampling(sampleRefs, maxWarmRefs)
}

// AdaptiveSampling returns an adaptive sampling policy targeting the given
// per-block relative standard error (≤ 0 selects the default 0.05), with
// block clustering enabled.
func AdaptiveSampling(targetRelErr float64) SamplingPolicy {
	return pebil.AdaptiveSampling(targetRelErr)
}

// ParseSamplingPolicy parses the -sampling flag / "sampling" wire syntax,
// e.g. "fixed:400000" or "adaptive:0.05,pilot=20000,cluster=on".
func ParseSamplingPolicy(s string) (SamplingPolicy, error) {
	return pebil.ParseSamplingPolicy(s)
}

// Sentinel errors for the failure modes callers branch on. Every error
// returned from the pipeline that stems from one of these conditions wraps
// the corresponding sentinel, so errors.Is works across all entry points
// (Engine methods and the CLIs).
var (
	// ErrMachineMismatch reports signatures and profiles (or mixed input
	// signatures) that describe different machines or applications.
	ErrMachineMismatch = trace.ErrMachineMismatch
	// ErrNoTraces reports a signature with no trace files.
	ErrNoTraces = trace.ErrNoTraces
	// ErrRankOutOfRange reports a rank selection outside [0, cores).
	ErrRankOutOfRange = trace.ErrRankOutOfRange
	// ErrEmptyWorkload reports an application whose workload generates no
	// basic blocks at the requested core count.
	ErrEmptyWorkload = pebil.ErrEmptyWorkload
	// ErrModelUnsupported reports a collection or derivation the analytical
	// cache model cannot serve faithfully (shared hierarchies, hardware
	// prefetchers, mismatched line sizes); retry with ModelExact.
	ErrModelUnsupported = cache.ErrModelUnsupported
	// ErrCoresOutOfRange reports a core count outside the application's
	// CoreRange.
	ErrCoresOutOfRange = synthapp.ErrCoresOutOfRange
)

// CanonicalForms returns the paper's four canonical forms (constant,
// linear, logarithmic, exponential) in selection tie-break order.
func CanonicalForms() []Form { return stats.CanonicalForms() }

// ExtendedForms returns the canonical forms plus the future-work extensions
// (power law and quadratic).
func ExtendedForms() []Form { return stats.ExtendedForms() }

// LoadApp returns a proxy application by name ("specfem3d", "uh3d",
// "cgsolve", "stencil3d", "stencil3dweak").
func LoadApp(name string) (*App, error) { return synthapp.ByName(name) }

// Apps lists the available proxy applications.
func Apps() []string { return synthapp.Names() }

// LoadMachine returns a predefined machine configuration by name (see
// Machines for the list); appending "+pf" to any name selects its
// hardware-prefetcher variant.
func LoadMachine(name string) (MachineConfig, error) { return machine.ByName(name) }

// Machines lists the predefined machine configurations.
func Machines() []string { return machine.Names() }

// DeriveSignature converts a reuse-distance signature into the application
// signature for one target geometry using the analytical cache model — no
// simulation runs, so sweeping many geometries over one collected profile
// costs microseconds per geometry. Targets the model cannot serve (hardware
// prefetchers, line-size mismatches) fail with ErrModelUnsupported.
func DeriveSignature(rs *ReuseSignature, app *App, target MachineConfig) (*Signature, error) {
	return pebil.SignatureFromReuse(rs, app, target, nil, cache.Analytical{})
}

// CompareTraces evaluates an extrapolated trace element-by-element against
// a collected one, reporting absolute relative errors and block influence.
func CompareTraces(extrapolated, collected *Trace) ([]ElementError, error) {
	return extrap.Compare(extrapolated, collected)
}

// Prediction is a runtime estimate for an application run on a target
// machine, with its decomposition.
type Prediction struct {
	// App, CoreCount and Machine identify the run.
	App       string
	CoreCount int
	Machine   string
	// Runtime is the wall-clock estimate in seconds.
	Runtime float64
	// ComputeSeconds is the dominant rank's computation time.
	ComputeSeconds float64
	// CommSeconds is the dominant rank's communication time (overheads
	// plus waits).
	CommSeconds float64
	// MemSeconds and FPSeconds decompose the dominant rank's computation.
	MemSeconds, FPSeconds float64
	// Replay is the full per-rank replay result; populated only when the
	// prediction was requested with PredictRequest.WithReplay.
	Replay *ReplayResult
	// Timeline is the per-rank segment record; populated only when the
	// prediction was requested with PredictRequest.WithTimeline.
	Timeline *Timeline
	// Intervals are the runtime prediction intervals, ascending by level;
	// populated only when the prediction was requested with
	// PredictRequest.Intervals from a signature carrying extrapolation
	// uncertainty.
	Intervals []Interval
}

// Interval is one central prediction interval on a predicted runtime (or
// any other posterior quantity): the value lies in [Lo, Hi] with
// probability Level.
type Interval = uncert.Interval

// DefaultIntervalLevels are the interval levels reported when a request
// does not choose its own: the 50%, 90% and 95% bands.
func DefaultIntervalLevels() []float64 {
	return append([]float64(nil), uncert.DefaultLevels...)
}

// ReplayResult is the discrete-event replay outcome with per-rank detail.
type ReplayResult = psins.Result

// RankClusters groups an application signature's MPI tasks by feature
// similarity (the paper's Future Work §VI clustering extension).
type RankClusters = cluster.RankClusters

// ClusterRanks k-means-clusters the signature's traces into groups of
// similar tasks and selects a representative ("centroid") rank for each.
func ClusterRanks(sig *Signature, k int, seed int64) (*RankClusters, error) {
	return cluster.ClusterRanks(sig, k, seed)
}

// Timeline is a replay's per-rank segment record (for visualization).
type Timeline = psins.Timeline
