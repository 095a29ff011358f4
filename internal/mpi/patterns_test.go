package mpi

import (
	"runtime"
	"strings"
	"testing"
)

// TestCompileRejectsDeparture: a build that describes another program on
// its second call is refused by Compile whether the second call emits more
// events on a rank, fewer, or as many but with its messages between other
// ranks. A program without ranks is refused before build runs.
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
	if _, err := Compile("x", 0, func(*Builder) { t.Error("build called for 0 ranks") }); err == nil {
		t.Error("0-rank program accepted")
	}
}

// TestCompileAllocationsFlat: the ops live in one array and the pattern
// calls allocate nothing per rank or per message, so the allocation count
// of a compile does not grow with the program.
func TestCompileAllocationsFlat(t *testing.T) {
	g, err := NewGrid3D(64)
	if err != nil {
		t.Fatal(err)
	}
	// A large op array can start the process's first GC cycle, and the
	// runtime then allocates its background mark workers inside the
	// measured window, charging the compile an object it never made. Run
	// that first cycle now, so the count is exact under any build mode
	// and test order.
	runtime.GC()
	allocs := func(steps int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Compile("halo", 64, func(b *Builder) {
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
