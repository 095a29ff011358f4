package tracex

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// The predictions golden pins Engine.Predict bit for bit across the five
// proxy apps at three core counts each on two machines: the runtime as
// float64 bits, the delivered message count and a hash of every rank's
// finish, compute and communication times, plus the segment hash of one
// non-blocking replay timeline. Any change to the replay, the validator or
// the program builder that moves a single ulp of any rank fails here.

// goldenPredictCores are three core counts inside each app's CoreRange.
var goldenPredictCores = map[string][]int{
	"specfem3d":     {64, 216, 512},
	"uh3d":          {1024, 1536, 2048},
	"stencil3d":     {27, 64, 1000},
	"stencil3dweak": {8, 125, 512},
	"cgsolve":       {16, 100, 343},
}

var goldenPredictMachines = []string{"bluewaters", "xe6"}

// goldenPredictOpt is a small fixed sampling policy: the golden pins the
// prediction stage, so collection only needs to be deterministic.
var goldenPredictOpt = CollectOptions{Sampling: FixedSampling(4_000, 8_000)}

type goldenPrediction struct {
	App          string `json:"app"`
	Cores        int    `json:"cores"`
	Machine      string `json:"machine"`
	RuntimeBits  string `json:"runtime_bits"`
	Messages     int    `json:"messages"`
	RankHash     string `json:"rank_hash"`
	TimelineHash string `json:"timeline_hash,omitempty"`
}

// hashFloats folds the bit patterns of every value of every slice into one
// FNV-1a digest.
func hashFloats(slices ...[]float64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, s := range slices {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(s)))
		h.Write(buf[:])
		for _, v := range s {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// hashTimeline digests every segment's rank, kind, block and bounds.
func hashTimeline(tl *Timeline) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, s := range tl.Segments {
		fmt.Fprintf(h, "%d/%s/%d/", s.Rank, s.Kind, s.BlockID)
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(s.Start))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(s.End))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x/%d", h.Sum64(), len(tl.Segments))
}

func TestPredictionsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("collects 30 signatures")
	}
	// The shared test engine holds the machine profiles the other tests
	// memoized (a profile is the costliest step here under the race
	// detector); predictions do not depend on which engine makes them.
	eng := testEngine
	ctx := context.Background()
	var got []goldenPrediction
	for _, name := range Apps() {
		app, err := LoadApp(name)
		if err != nil {
			t.Fatal(err)
		}
		cores, ok := goldenPredictCores[name]
		if !ok {
			t.Fatalf("no golden core counts for app %s", name)
		}
		for _, m := range goldenPredictMachines {
			cfg, err := LoadMachine(m)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cores {
				sig, err := eng.CollectSignature(ctx, app, c, cfg, goldenPredictOpt)
				if err != nil {
					t.Fatalf("%s@%d on %s: %v", name, c, m, err)
				}
				// The 27-rank stencil3d case is the non-blocking halo
				// whose timeline is pinned as well.
				timeline := name == "stencil3d" && c == 27 && m == "bluewaters"
				pred, err := eng.Predict(ctx, PredictRequest{
					Signature: sig, App: app, Machine: &cfg,
					WithReplay: true, WithTimeline: timeline,
				})
				if err != nil {
					t.Fatalf("predict %s@%d on %s: %v", name, c, m, err)
				}
				r := pred.Replay
				g := goldenPrediction{
					App: name, Cores: c, Machine: m,
					RuntimeBits: fmt.Sprintf("%016x", math.Float64bits(pred.Runtime)),
					Messages:    r.Messages,
					RankHash:    hashFloats(r.RankEnd, r.ComputeTime, r.CommTime),
				}
				if timeline {
					g.TimelineHash = hashTimeline(pred.Timeline)
				}
				got = append(got, g)
			}
		}
	}
	b, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "predictions.golden.json", append(b, '\n'))
}
