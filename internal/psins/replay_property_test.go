package psins

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tracex/internal/machine"
	"tracex/internal/mpi"
)

// testNetCfg is the network used by the replay property tests.
var testNetCfg = machine.NetworkConfig{LatencyUS: 5, BandwidthGBs: 2, OverheadUS: 1}

// description is an n-rank program that build describes.
type description struct {
	n     int
	build func(*mpi.Builder)
}

// replay replays the program once.
func (p description) replay(net Network, cost ComputeCost) (*Result, error) {
	return Replay(context.Background(), p.n, p.build, net, cost, nil)
}

// randomDescription describes a random program of Builder patterns. Every
// call of its build draws the same program from its own copy of the seeded
// source.
func randomDescription(seed int64) (description, error) {
	n := []int{2, 4, 8, 27}[rand.New(rand.NewSource(seed)).Intn(4)]
	g, err := mpi.NewGrid3D(n)
	if err != nil {
		return description{}, err
	}
	return description{n, func(b *mpi.Builder) {
		r := rand.New(rand.NewSource(seed))
		r.Intn(4) // the rank count
		steps := 1 + r.Intn(4)
		for s := 0; s < steps; s++ {
			b.ComputeAll(uint64(r.Intn(3)+1), 1.0/float64(steps))
			if r.Intn(2) == 0 {
				b.HaloExchange3D(g, uint64(r.Intn(1<<16)+1), s*100)
			} else {
				b.HaloExchange3DNonblocking(g, uint64(r.Intn(1<<16)+1), s*100)
			}
			b.Allreduce(uint64(r.Intn(256) + 1))
		}
	}}, nil
}

// Property: replay is deterministic and its runtime is bounded below by
// the maximum per-rank compute time and above by total compute plus total
// communication per rank.
func TestReplayInvariantsProperty(t *testing.T) {
	net, err := NewNetwork(testNetCfg)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		desc, err := randomDescription(seed)
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed ^ 0x5eed))
		perBlock := map[uint64]float64{}
		cost := func(rank int, blockID uint64, share float64) (float64, error) {
			c, ok := perBlock[blockID]
			if !ok {
				c = r.Float64() * 0.1
				perBlock[blockID] = c
			}
			return c * share, nil
		}
		a, err := desc.replay(net, cost)
		if err != nil {
			return false
		}
		b, err := desc.replay(net, cost)
		if err != nil {
			return false
		}
		if a.Runtime != b.Runtime {
			return false // nondeterministic
		}
		var maxCompute float64
		for rk := range a.ComputeTime {
			if a.ComputeTime[rk] < 0 || a.CommTime[rk] < 0 {
				return false
			}
			if a.ComputeTime[rk] > maxCompute {
				maxCompute = a.ComputeTime[rk]
			}
			// Each rank's end time decomposes exactly.
			if math.Abs(a.RankEnd[rk]-(a.ComputeTime[rk]+a.CommTime[rk])) > 1e-9 {
				return false
			}
			if a.RankEnd[rk] > a.Runtime+1e-12 {
				return false
			}
		}
		return a.Runtime >= maxCompute-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: inflating every compute cost never reduces the replay runtime
// (monotonicity of the DES in compute time).
func TestReplayMonotoneInComputeProperty(t *testing.T) {
	net, err := NewNetwork(testNetCfg)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		desc, err := randomDescription(seed)
		if err != nil {
			return false
		}
		mk := func(scale float64) ComputeCost {
			return func(rank int, blockID uint64, share float64) (float64, error) {
				return scale * 0.01 * share * float64(blockID), nil
			}
		}
		small, err := desc.replay(net, mk(1))
		if err != nil {
			return false
		}
		big, err := desc.replay(net, mk(3))
		if err != nil {
			return false
		}
		return big.Runtime >= small.Runtime-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: a faster network never increases the runtime.
func TestReplayMonotoneInNetworkProperty(t *testing.T) {
	slow, err := NewNetwork(testNetCfg)
	if err != nil {
		t.Fatal(err)
	}
	fastCfg := testNetCfg
	fastCfg.LatencyUS /= 10
	fastCfg.BandwidthGBs *= 10
	fastCfg.OverheadUS /= 10
	fast, err := NewNetwork(fastCfg)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		desc, err := randomDescription(seed)
		if err != nil {
			return false
		}
		rs, err := desc.replay(slow, flatCost(0.001))
		if err != nil {
			return false
		}
		rf, err := desc.replay(fast, flatCost(0.001))
		if err != nil {
			return false
		}
		return rf.Runtime <= rs.Runtime+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
