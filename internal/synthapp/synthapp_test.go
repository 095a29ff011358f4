package synthapp

import (
	"math"
	"testing"

	"tracex/internal/addrgen"
	"tracex/internal/mpi"
)

// compile compiles app's program at p cores; compiling checks it as
// Program.Validate would.
func compile(t *testing.T, app *App, p int) *mpi.Compiled {
	t.Helper()
	build, err := app.Build(p)
	if err != nil {
		t.Fatalf("%s.Build(%d): %v", app.Name(), p, err)
	}
	c, err := mpi.Compile(app.Name(), p, build)
	if err != nil {
		t.Fatalf("%s at %d cores: %v", app.Name(), p, err)
	}
	return c
}

// computes returns the (block, share) pairs of rank r's compute ops.
func computes(c *mpi.Compiled, r int) []mpi.BlockShare {
	var out []mpi.BlockShare
	for _, op := range c.Ops[c.Off[r]:c.Off[r+1]] {
		if op.Kind == mpi.Compute {
			out = append(out, c.Computes[op.Arg])
		}
	}
	return out
}

func TestByNameAndNames(t *testing.T) {
	for _, name := range Names() {
		app, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if app.Name() != name {
			t.Errorf("app name %s != %s", app.Name(), name)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestBlockSpecsValid(t *testing.T) {
	for _, name := range Names() {
		app, _ := ByName(name)
		seen := map[uint64]bool{}
		for _, s := range app.Blocks() {
			if err := s.Validate(); err != nil {
				t.Errorf("%s/%s: %v", name, s.Func, err)
			}
			if seen[s.ID] {
				t.Errorf("%s: duplicate block ID %d", name, s.ID)
			}
			seen[s.ID] = true
		}
	}
}

func TestBlockSpecValidateRejectsBad(t *testing.T) {
	good := BlockSpec{ID: 1, Func: "f", FPPerRef: 1, AddFrac: 0.5, MulFrac: 0.5,
		LoadFrac: 0.5, BytesPerRef: 8, ILP: 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	bads := []BlockSpec{
		{ID: 0, Func: "f", FPPerRef: 1, BytesPerRef: 8, ILP: 1},
		{ID: 1, Func: "f", FPPerRef: -1, BytesPerRef: 8, ILP: 1},
		{ID: 1, Func: "f", FPPerRef: 1, BytesPerRef: 0, ILP: 1},
		{ID: 1, Func: "f", FPPerRef: 1, BytesPerRef: 8, ILP: 0},
		{ID: 1, Func: "f", FPPerRef: 1, AddFrac: 0.9, MulFrac: 0.3, BytesPerRef: 8, ILP: 1},
		{ID: 1, Func: "f", FPPerRef: 1, LoadFrac: 1.5, BytesPerRef: 8, ILP: 1},
	}
	for i, b := range bads {
		if err := b.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestCoreRangeEnforced(t *testing.T) {
	app := SPECFEM3D()
	min, max := app.CoreRange()
	if _, err := app.Work(min - 1); err == nil {
		t.Error("below-range core count accepted")
	}
	if _, err := app.Work(max + 1); err == nil {
		t.Error("above-range core count accepted")
	}
	if _, err := app.Build(min - 1); err == nil {
		t.Error("Build below range accepted")
	}
}

func TestWorkShapes(t *testing.T) {
	for _, name := range Names() {
		app, _ := ByName(name)
		min, _ := app.CoreRange()
		works, err := app.Work(min)
		if err != nil {
			t.Fatalf("%s.Work(%d): %v", name, min, err)
		}
		if len(works) != len(app.Blocks()) {
			t.Fatalf("%s: %d works for %d blocks", name, len(works), len(works))
		}
		for _, w := range works {
			if w.Refs <= 0 {
				t.Errorf("%s/%s: refs %g", name, w.Spec.Func, w.Refs)
			}
			if w.WorkingSetBytes <= 0 {
				t.Errorf("%s/%s: working set %g", name, w.Spec.Func, w.WorkingSetBytes)
			}
			if w.Gen == nil {
				t.Errorf("%s/%s: nil generator", name, w.Spec.Func)
			}
		}
	}
}

func TestWorkDeterministic(t *testing.T) {
	a1, _ := ByName("uh3d")
	a2, _ := ByName("uh3d")
	w1, err := a1.Work(2048)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := a2.Work(2048)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w1 {
		if w1[i].Refs != w2[i].Refs {
			t.Errorf("block %d refs differ across constructions", i)
		}
		s1, s2 := make([]uint64, 100), make([]uint64, 100)
		addrgen.FillBatch(w1[i].Gen, s1)
		addrgen.FillBatch(w2[i].Gen, s2)
		for j := range s1 {
			if s1[j] != s2[j] {
				t.Fatalf("block %d stream diverges at %d", i, j)
			}
		}
	}
}

func TestLoadFactorsAndClasses(t *testing.T) {
	app := UH3D()
	if app.NumClasses() < 2 {
		t.Fatalf("NumClasses = %d", app.NumClasses())
	}
	if app.LoadFactor(0) != 1.0 {
		t.Errorf("rank 0 load factor %g, want 1 (dominant)", app.LoadFactor(0))
	}
	for r := 0; r < 32; r++ {
		f := app.LoadFactor(r)
		if f <= 0 || f > 1 {
			t.Errorf("rank %d load factor %g", r, f)
		}
		if app.ClassOf(r) != r%app.NumClasses() {
			t.Errorf("rank %d class %d", r, app.ClassOf(r))
		}
	}
}

func TestRefsLawsBehaveAcrossPaperCounts(t *testing.T) {
	// SPECFEM3D: compute_element_forces decreases, assemble_global grows.
	app := SPECFEM3D()
	counts := []int{96, 384, 1536, 6144}
	var forces, assemble []float64
	for _, p := range counts {
		ws, err := app.Work(p)
		if err != nil {
			t.Fatalf("Work(%d): %v", p, err)
		}
		forces = append(forces, ws[0].Refs)
		assemble = append(assemble, ws[2].Refs)
	}
	for i := 1; i < len(counts); i++ {
		if forces[i] >= forces[i-1] {
			t.Errorf("compute_element_forces refs not decreasing: %v", forces)
		}
		if assemble[i] <= assemble[i-1] {
			t.Errorf("assemble_global refs not increasing: %v", assemble)
		}
	}
}

func TestUH3DFieldUpdateLocalityConcentrates(t *testing.T) {
	// Under strong scaling the field_update block keeps a constant
	// footprint but concentrates a growing (logarithmic) fraction of its
	// references onto the resident tile — the mechanism behind Table II's
	// rising hit rates.
	app := UH3D()
	var prevWS, prevFrac float64
	for i, p := range []int{1024, 2048, 4096, 8192} {
		ws, err := app.Work(p)
		if err != nil {
			t.Fatalf("Work(%d): %v", p, err)
		}
		cur := ws[1].WorkingSetBytes // field_update
		if i > 0 && cur != prevWS {
			t.Errorf("field_update working set changed at p=%d: %g vs %g", p, cur, prevWS)
		}
		prevWS = cur
		frac := hotFraction(-1.053, 0.178, p)
		if frac <= prevFrac {
			t.Errorf("hot fraction not increasing at p=%d: %g ≤ %g", p, frac, prevFrac)
		}
		prevFrac = frac
	}
}

func TestHotFractionClamped(t *testing.T) {
	if got := hotFraction(-100, 0, 1024); got != 0 {
		t.Errorf("negative law not clamped to 0: %g", got)
	}
	if got := hotFraction(100, 0, 1024); got != 0.95 {
		t.Errorf("oversized law not clamped to 0.95: %g", got)
	}
	if got := hotFraction(0, 0.1, 7); got <= 0 || got >= 0.95 {
		t.Errorf("interior law clamped unexpectedly: %g", got)
	}
}

func TestInfluenceStructure(t *testing.T) {
	// The diagnostic blocks must be tiny relative to the app total.
	for _, name := range []string{"specfem3d", "uh3d"} {
		app, _ := ByName(name)
		min, _ := app.CoreRange()
		works, err := app.Work(min * 16)
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, w := range works {
			total += w.Refs
		}
		last := works[len(works)-1]
		if ratio := last.Refs / total; ratio > 0.001 {
			t.Errorf("%s/%s influence %g, want <0.1%%", name, last.Spec.Func, ratio)
		}
		// And the first block is dominant enough to matter.
		if ratio := works[0].Refs / total; ratio < 0.05 {
			t.Errorf("%s/%s influence %g too small", name, works[0].Spec.Func, ratio)
		}
	}
}

func TestProgramStructure(t *testing.T) {
	prog := compile(t, Stencil3D(), 64)
	if n := len(prog.Off) - 1; n != 64 {
		t.Fatalf("%d ranks", n)
	}
	// Per-rank compute shares per block must sum to 1 across the steps.
	shares := map[uint64]float64{}
	for _, c := range computes(prog, 0) {
		shares[c.BlockID] += c.Share
	}
	for id, s := range shares {
		if math.Abs(s-1) > 1e-9 {
			t.Errorf("block %d shares sum to %g", id, s)
		}
	}
	if prog.Messages == 0 {
		t.Error("no halo messages generated")
	}
}

func TestProgramSingleRank(t *testing.T) {
	compile(t, Stencil3D(), 8)
}

func TestJitterBoundedAndDeterministic(t *testing.T) {
	for _, p := range []int{96, 1024, 8192} {
		for id := uint64(1); id < 30; id++ {
			j := jitter(p, id, 0.005)
			if j < 0.995 || j > 1.005 {
				t.Errorf("jitter(%d,%d) = %g out of band", p, id, j)
			}
			if j != jitter(p, id, 0.005) {
				t.Error("jitter not deterministic")
			}
		}
	}
}

func TestExpDecay(t *testing.T) {
	if got := expDecay(100, 1000, 0); got != 100 {
		t.Errorf("expDecay at 0 = %g", got)
	}
	if got := expDecay(100, 1000, 1000); math.Abs(got-100/math.E) > 1e-9 {
		t.Errorf("expDecay at tau = %g", got)
	}
}

func TestAllAppsProgramsValidateAcrossCounts(t *testing.T) {
	for _, name := range Names() {
		app, _ := ByName(name)
		min, max := app.CoreRange()
		counts := []int{min, min * 2, min * 8}
		if max < min*8 {
			counts = []int{min, max}
		}
		for _, p := range counts {
			prog := compile(t, app, p)
			works, err := app.Work(p)
			if err != nil {
				t.Fatalf("%s.Work(%d): %v", name, p, err)
			}
			// Every compute event references a defined block.
			blocks := map[uint64]bool{}
			for _, w := range works {
				blocks[w.Spec.ID] = true
			}
			for _, c := range computes(prog, 0) {
				if !blocks[c.BlockID] {
					t.Errorf("%s: compute references unknown block %d", name, c.BlockID)
				}
			}
		}
	}
}
