// Package synthapp defines the synthetic strong-scaled proxy applications
// that stand in for the paper's SPECFEM3D_GLOBE and UH3D production codes
// (which require Kraken-class hardware and production datasets). Each proxy
// consists of basic blocks — kernels with a memory access pattern, a
// floating-point intensity and an instruction-level parallelism — whose
// per-rank workloads (reference counts, working sets, locality mixes) evolve
// with the core count the way the paper's measurements show the dominant
// task's features evolving: constant, linear, logarithmic or exponential
// trends with small deterministic perturbations, plus working sets that
// drain into deeper cache levels as the problem strong-scales (Table II) and
// fixed-size lookup structures that straddle candidate L1 sizes (Table III).
//
// Every workload is deterministic: the same (app, core count, block) always
// produces the same sampled address stream.
package synthapp

import (
	"errors"
	"fmt"
	"math"

	"tracex/internal/addrgen"
	"tracex/internal/mpi"
)

// BlockSpec is the static description of one basic block.
type BlockSpec struct {
	// ID is the block's stable identifier across core counts.
	ID uint64
	// Func, File and Line give the block's synthetic source location.
	Func string
	File string
	Line int
	// FPPerRef is the number of floating-point operations per memory
	// reference.
	FPPerRef float64
	// AddFrac, MulFrac and DivFrac split the FP work by class; they sum
	// to at most 1.
	AddFrac, MulFrac, DivFrac float64
	// LoadFrac is the fraction of memory references that are loads.
	LoadFrac float64
	// BytesPerRef is the payload size of one reference.
	BytesPerRef float64
	// ILP is the block's instruction-level parallelism.
	ILP float64
}

// Validate checks the spec.
func (s BlockSpec) Validate() error {
	if s.ID == 0 {
		return fmt.Errorf("synthapp: block %q has zero ID", s.Func)
	}
	if s.FPPerRef < 0 || s.BytesPerRef <= 0 || s.ILP <= 0 {
		return fmt.Errorf("synthapp: block %s has bad rates", s.Func)
	}
	if s.AddFrac < 0 || s.MulFrac < 0 || s.DivFrac < 0 || s.AddFrac+s.MulFrac+s.DivFrac > 1+1e-9 {
		return fmt.Errorf("synthapp: block %s FP composition invalid", s.Func)
	}
	if s.LoadFrac < 0 || s.LoadFrac > 1 {
		return fmt.Errorf("synthapp: block %s load fraction %g", s.Func, s.LoadFrac)
	}
	return nil
}

// blockDef couples a spec with the block's workload laws.
type blockDef struct {
	spec BlockSpec
	// refs returns the dominant rank's memory reference count at core
	// count p.
	refs func(p int) float64
	// newGen builds the block's pattern-faithful address stream at core
	// count p, placed at the given base address.
	newGen func(p int, base uint64) (addrgen.Generator, error)
	// ws returns the block's working-set size in bytes at core count p.
	ws func(p int) float64
}

// Work is the dominant rank's workload for one block at one core count.
type Work struct {
	// Spec is the block's static description.
	Spec BlockSpec
	// Refs is the total number of memory references the rank executes.
	Refs float64
	// WorkingSetBytes is the block's data footprint.
	WorkingSetBytes float64
	// Gen produces the block's sampled address stream.
	Gen addrgen.Generator
}

// App is a synthetic proxy application.
type App struct {
	name   string
	blocks []blockDef
	// classFactors scale per-rank work; classFactors[0] = 1 is the
	// dominant class. Ranks are assigned round-robin.
	classFactors []float64
	// steps is the number of timesteps the event trace spans.
	steps int
	// haloBytes is the per-face halo payload at core count p.
	haloBytes func(p int) uint64
	// nonblockingHalo selects Isend/Irecv/Wait halo exchanges instead of
	// blocking Send/Recv pairs.
	nonblockingHalo bool
	// allreduceBytes is the per-step reduction payload.
	allreduceBytes uint64
	// minCores and maxCores bound the validated core-count range of the
	// workload laws.
	minCores, maxCores int
}

// Name returns the application name.
func (a *App) Name() string { return a.name }

// Blocks returns the static block specs in ID order.
func (a *App) Blocks() []BlockSpec {
	out := make([]BlockSpec, len(a.blocks))
	for i, b := range a.blocks {
		out[i] = b.spec
	}
	return out
}

// CoreRange returns the inclusive core-count range the app's workload laws
// are defined over.
func (a *App) CoreRange() (min, max int) { return a.minCores, a.maxCores }

// NumClasses returns the number of load-imbalance classes.
func (a *App) NumClasses() int { return len(a.classFactors) }

// ClassOf returns the load class of a rank (round-robin assignment).
func (a *App) ClassOf(rank int) int { return rank % len(a.classFactors) }

// LoadFactor returns the rank's relative compute weight; rank 0 (class 0)
// is the dominant, most heavily loaded task with factor 1.
func (a *App) LoadFactor(rank int) float64 { return a.classFactors[a.ClassOf(rank)] }

// ErrCoresOutOfRange reports a core count outside an application's
// CoreRange, where its workload laws are not defined.
var ErrCoresOutOfRange = errors.New("core count out of range")

// checkCores validates a core count against the app's defined range.
func (a *App) checkCores(p int) error {
	if p < a.minCores || p > a.maxCores {
		return fmt.Errorf("synthapp: %w: %s defined for %d..%d cores, got %d",
			ErrCoresOutOfRange, a.name, a.minCores, a.maxCores, p)
	}
	return nil
}

// Work returns the dominant rank's per-block workload at core count p.
// Other ranks execute the same blocks scaled by their LoadFactor.
func (a *App) Work(p int) ([]Work, error) {
	if err := a.checkCores(p); err != nil {
		return nil, err
	}
	out := make([]Work, 0, len(a.blocks))
	for i := range a.blocks {
		b := &a.blocks[i]
		base := b.spec.ID << 32 // disjoint address regions per block
		gen, err := b.newGen(p, base)
		if err != nil {
			return nil, fmt.Errorf("synthapp: %s block %s at p=%d: %w", a.name, b.spec.Func, p, err)
		}
		refs := b.refs(p)
		if refs <= 0 {
			return nil, fmt.Errorf("synthapp: %s block %s has non-positive refs %g at p=%d",
				a.name, b.spec.Func, refs, p)
		}
		out = append(out, Work{
			Spec:            b.spec,
			Refs:            refs,
			WorkingSetBytes: b.ws(p),
			Gen:             gen,
		})
	}
	return out, nil
}

// Build returns the description of the app's MPI event trace at core
// count p, the Builder calls that emit it, for psins.Replay or
// mpi.Compile: steps timesteps, each computing every block on every rank
// followed by a 3D halo exchange and an allreduce.
func (a *App) Build(p int) (func(*mpi.Builder), error) {
	if err := a.checkCores(p); err != nil {
		return nil, err
	}
	g, err := mpi.NewGrid3D(p)
	if err != nil {
		return nil, err
	}
	share := 1.0 / float64(a.steps)
	return func(b *mpi.Builder) {
		for step := 0; step < a.steps; step++ {
			for i := range a.blocks {
				b.ComputeAll(a.blocks[i].spec.ID, share)
			}
			if p > 1 {
				if a.nonblockingHalo {
					b.HaloExchange3DNonblocking(g, a.haloBytes(p), 1000*step)
				} else {
					b.HaloExchange3D(g, a.haloBytes(p), 1000*step)
				}
			}
			b.Allreduce(a.allreduceBytes)
		}
	}, nil
}

// jitter is a small deterministic multiplicative perturbation applied to
// workload laws so canonical-form fits carry realistic residuals instead of
// being exact. Amplitude amp is the relative half-range.
func jitter(p int, blockID uint64, amp float64) float64 {
	return 1 + amp*math.Sin(1.7*float64(blockID)+2.9*math.Log(float64(p)))
}

// expDecay returns w0·e^(-p/tau).
func expDecay(w0 float64, tau float64, p int) float64 {
	return w0 * math.Exp(-float64(p)/tau)
}

// hotFraction returns a+b·ln p clamped into [0, 0.95]: the fraction of a
// block's random references that land in its cache-resident "hot" region.
// Strong scaling concentrates each rank's accesses onto its local tile, so
// the fraction grows with the core count; making it logarithmic in p gives
// the block cumulative hit rates of the form offset + c·ln p — exactly the
// logarithmic canonical form the paper's measurements show (Figure 5) —
// while the block's working set stays constant.
func hotFraction(a, b float64, p int) float64 {
	f := a + b*math.Log(float64(p))
	if f < 0 {
		f = 0
	}
	if f > 0.95 {
		f = 0.95
	}
	return f
}
