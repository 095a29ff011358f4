package mpi

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestBuildProgramMatchesAppendBuilder builds random pattern sequences both
// ways: BuildProgram's dry run and fill must give every rank the events the
// appending builder gives it, in traces sized exactly.
func TestBuildProgramMatchesAppendBuilder(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		want, err := composeProgram(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := BuildProgram("diff", len(want.Ranks), func(b *Builder) {
			c := rand.New(rand.NewSource(seed))
			c.Intn(7) // the rank count composeProgram drew
			composeOn(b, c)
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got.App != want.App || len(got.Ranks) != len(want.Ranks) {
			t.Fatalf("seed %d: program %s/%d ranks, want %s/%d", seed, got.App, len(got.Ranks), want.App, len(want.Ranks))
		}
		for r := range want.Ranks {
			if !slices.Equal(got.Ranks[r], want.Ranks[r]) {
				t.Fatalf("seed %d rank %d: events differ from the appending builder", seed, r)
			}
			if cap(got.Ranks[r]) != len(got.Ranks[r]) {
				t.Fatalf("seed %d rank %d: %d events in a trace of capacity %d", seed, r, len(got.Ranks[r]), cap(got.Ranks[r]))
			}
		}
	}
}

// TestBuildProgramErrors: the dry run reports what the appending builder
// reports, and a build that describes a different program on its second
// call is refused.
func TestBuildProgramErrors(t *testing.T) {
	bad := func(b *Builder) { b.ComputeAll(1, 0.5).Compute(1, 2, 1.5) }
	_, want := NewBuilder("x", 2).ComputeAll(1, 0.5).Compute(1, 2, 1.5).Build()
	if _, err := BuildProgram("x", 2, bad); err == nil || err.Error() != want.Error() {
		t.Errorf("BuildProgram error %v, want %v", err, want)
	}
	if _, err := BuildProgram("x", 0, func(*Builder) {}); err == nil {
		t.Error("0-rank program accepted")
	}
	calls := 0
	_, err := BuildProgram("x", 2, func(b *Builder) {
		calls++
		for i := 0; i < calls; i++ {
			b.Allreduce(8)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "dry run counted") {
		t.Errorf("a fill that departs from its dry run: %v", err)
	}
}

// TestCompileRejectsDeparture: a build that describes another program on
// its second call is refused by Compile whether the second call emits more
// events on a rank, fewer, or as many but with its messages between other
// ranks.
func TestCompileRejectsDeparture(t *testing.T) {
	for name, build := range map[string]func(int) func(*Builder){
		"more": func(call int) func(*Builder) {
			return func(b *Builder) {
				for i := 0; i < call; i++ {
					b.Allreduce(8)
				}
			}
		},
		"fewer": func(call int) func(*Builder) {
			return func(b *Builder) {
				for i := call; i < 3; i++ {
					b.Allreduce(8)
				}
			}
		},
		"rerouted": func(call int) func(*Builder) {
			return func(b *Builder) { b.SendRecv(call-1, 2-call, 0, 8) }
		},
	} {
		calls := 0
		_, err := Compile("x", 2, func(b *Builder) {
			calls++
			build(calls)(b)
		})
		if err == nil || !strings.Contains(err.Error(), "departs from its dry run") {
			t.Errorf("%s: Compile error %v", name, err)
		}
	}
}

// TestBuildProgramAllocationsFlat: the events live in one array, so the
// allocation count of a build does not grow with the program.
func TestBuildProgramAllocationsFlat(t *testing.T) {
	g, err := NewGrid3D(64)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(steps int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := BuildProgram("halo", 64, func(b *Builder) {
				for s := 0; s < steps; s++ {
					b.ComputeAll(1, 0.1).HaloExchange3DNonblocking(g, 1024, 1000*s).Allreduce(8)
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, ten := allocs(1), allocs(10); ten != one {
		t.Errorf("10 steps allocated %.0f objects, 1 step %.0f; want the same", ten, one)
	}
}
