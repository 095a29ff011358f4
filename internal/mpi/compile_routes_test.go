package mpi_test

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tracex/internal/machine"
	"tracex/internal/mpi"
	"tracex/internal/psins"
)

// checkRoutes compiles the random Builder composition that choices
// describe both ways: straight from the Builder's patterns (mpi.Compile,
// the predict path) and from BuildProgram's materialized program
// (Program.Compile). Both must give every op the same kind, payload or
// (block, share) pair and message slot, and replaying the two schedules
// must give bit-identical Results and identical timelines.
func checkRoutes(t *testing.T, choices []byte) {
	t.Helper()
	n, build := mpi.Composition(choices)
	direct, err := mpi.Compile("diff", n, build)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	prog, err := mpi.BuildProgram("diff", n, build)
	if err != nil {
		t.Fatalf("BuildProgram: %v", err)
	}
	viaProg, err := prog.Compile()
	if err != nil {
		t.Fatalf("Program.Compile: %v", err)
	}
	if !slices.Equal(direct.Off, viaProg.Off) || len(direct.Ops) != len(viaProg.Ops) {
		t.Fatalf("rank offsets %v and %v", direct.Off, viaProg.Off)
	}
	if direct.Messages != viaProg.Messages || direct.Collectives != viaProg.Collectives {
		t.Fatalf("%d messages and %d collectives, via the program %d and %d",
			direct.Messages, direct.Collectives, viaProg.Messages, viaProg.Collectives)
	}
	for i, a := range direct.Ops {
		b := viaProg.Ops[i]
		if a.Kind != b.Kind || a.Slot != b.Slot {
			t.Fatalf("op %d: %s in slot %d, via the program %s in slot %d", i, a.Kind, a.Slot, b.Kind, b.Slot)
		}
		if a.Kind == mpi.Compute {
			if direct.Computes[a.Arg] != viaProg.Computes[b.Arg] {
				t.Fatalf("op %d computes %+v, via the program %+v", i, direct.Computes[a.Arg], viaProg.Computes[b.Arg])
			}
		} else if a.Arg != b.Arg {
			t.Fatalf("op %d carries %d bytes, via the program %d", i, a.Arg, b.Arg)
		}
	}

	net, err := psins.NewNetwork(machine.NetworkConfig{LatencyUS: 5, BandwidthGBs: 2, OverheadUS: 1})
	if err != nil {
		t.Fatal(err)
	}
	cost := func(rank int, block uint64, share float64) (float64, error) {
		return (float64(block) + float64(rank%3)/7) * share * 1e-3, nil
	}
	replay := func(s *psins.Schedule, err error) (*psins.Result, *psins.Timeline) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var tl psins.Timeline
		res, err := s.Replay(context.Background(), net, cost, &tl)
		if err != nil {
			t.Fatal(err)
		}
		return res, &tl
	}
	resA, tlA := replay(psins.CompileBuild("diff", n, build))
	resB, tlB := replay(psins.Compile(prog))
	if !sameBits(resA, resB) {
		t.Fatalf("replays differ:\n%+v\n%+v", resA, resB)
	}
	if !reflect.DeepEqual(tlA, tlB) {
		t.Fatal("replay timelines differ")
	}
}

// sameBits reports whether two replay results are bit-identical.
func sameBits(a, b *psins.Result) bool {
	same := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	return math.Float64bits(a.Runtime) == math.Float64bits(b.Runtime) && a.Messages == b.Messages &&
		same(a.RankEnd, b.RankEnd) && same(a.ComputeTime, b.ComputeTime) && same(a.CommTime, b.CommTime)
}

// TestCompileRoutesAgree runs checkRoutes on 300 random compositions.
func TestCompileRoutesAgree(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		choices := make([]byte, r.Intn(40))
		r.Read(choices)
		checkRoutes(t, choices)
	}
}

// FuzzCompileRoutesAgree runs checkRoutes on compositions the fuzzer's
// bytes describe.
func FuzzCompileRoutesAgree(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{6, 0, 5, 3, 200, 1, 4, 7, 9})
	f.Add([]byte{3, 1, 3, 3, 17, 2, 4, 0, 1, 2, 3})
	f.Add([]byte{5, 2, 2, 2, 99, 1, 3, 0, 5, 4, 6, 6, 5, 1, 7, 7, 3})
	f.Fuzz(checkRoutes)
}
