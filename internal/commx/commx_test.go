package commx

import (
	"math"
	"testing"

	"tracex/internal/mpi"
	"tracex/internal/synthapp"
)

// compileApp compiles the named proxy's program at p cores.
func compileApp(t *testing.T, name string, p int) *mpi.Compiled {
	t.Helper()
	app, err := synthapp.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	build, err := app.Build(p)
	if err != nil {
		t.Fatalf("Build(%d): %v", p, err)
	}
	c, err := mpi.Compile(name, p, build)
	if err != nil {
		t.Fatalf("Compile(%d): %v", p, err)
	}
	return c
}

// compileSynth compiles the program Synthesize describes for p.
func compileSynth(t *testing.T, p Profile) *mpi.Compiled {
	t.Helper()
	build, err := Synthesize(p)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	c, err := mpi.Compile("synth", p.CoreCount, build)
	if err != nil {
		t.Fatalf("synthesized program invalid: %v", err)
	}
	return c
}

func TestSummarizeUH3D(t *testing.T) {
	prog := compileApp(t, "uh3d", 1024)
	p, err := Summarize(prog, 0)
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	if p.CoreCount != 1024 {
		t.Errorf("CoreCount = %d", p.CoreCount)
	}
	// Rank 0 is a 3D grid corner: 3 neighbors.
	if p.Neighbors != 3 {
		t.Errorf("Neighbors = %d, want 3", p.Neighbors)
	}
	// Two timesteps: two messages per neighbor, two allreduces.
	if p.MessagesPerNeighbor != 2 {
		t.Errorf("MessagesPerNeighbor = %g", p.MessagesPerNeighbor)
	}
	if p.Collectives != 2 {
		t.Errorf("Collectives = %d", p.Collectives)
	}
	if p.BytesPerMessage <= 0 || p.CollectiveBytes != 128 {
		t.Errorf("payloads: %g, %g", p.BytesPerMessage, p.CollectiveBytes)
	}
}

func TestSummarizeErrors(t *testing.T) {
	prog := compileApp(t, "uh3d", 1024)
	if _, err := Summarize(prog, -1); err == nil {
		t.Error("negative rank accepted")
	}
	if _, err := Summarize(prog, 1024); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if _, err := Summarize(&mpi.Compiled{}, 0); err == nil {
		t.Error("program without ranks accepted")
	}
}

// TestSummarizeHaloExchanges summarizes every rank of a non-blocking halo
// program (stencil3d, whose slots leave gaps) and a blocking one
// (specfem3d) on a 4x4x4 grid. Each rank's neighbors are its face
// neighbors, found here from its coordinates; each step sends one message
// per neighbor and runs one allreduce; and the ranks' sends and payloads
// add up to the program's.
func TestSummarizeHaloExchanges(t *testing.T) {
	const p = 64
	for _, name := range []string{"stencil3d", "specfem3d"} {
		c := compileApp(t, name, p)
		if name == "stencil3d" && c.Slots <= c.Messages {
			t.Errorf("stencil3d: %d slots for %d messages, want gaps", c.Slots, c.Messages)
		}
		var sends, bytes float64
		for r := 0; r < p; r++ {
			prof, err := Summarize(c, r)
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			for _, x := range []int{r % 4, r / 4 % 4, r / 16} {
				if x > 0 {
					want++
				}
				if x < 3 {
					want++
				}
			}
			if prof.CoreCount != p || prof.Neighbors != want {
				t.Fatalf("%s rank %d: %d cores, %d neighbors; want %d, %d", name, r, prof.CoreCount, prof.Neighbors, p, want)
			}
			if prof.Collectives != c.Collectives || prof.MessagesPerNeighbor != float64(c.Collectives) {
				t.Fatalf("%s rank %d: %d collectives and %g messages per neighbor, want %d",
					name, r, prof.Collectives, prof.MessagesPerNeighbor, c.Collectives)
			}
			n := float64(prof.Neighbors) * prof.MessagesPerNeighbor
			sends += n
			bytes += n * prof.BytesPerMessage
		}
		if sends != float64(c.Messages) || bytes != float64(c.PayloadBytes()) {
			t.Errorf("%s: ranks send %g messages of %g bytes, the program %d of %d",
				name, sends, bytes, c.Messages, c.PayloadBytes())
		}
	}
}

func TestExtrapolateCommProfile(t *testing.T) {
	var profiles []Profile
	for _, p := range []int{1024, 2048, 4096} {
		prof, err := Summarize(compileApp(t, "uh3d", p), 0)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, prof)
	}
	ext, err := Extrapolate(profiles, 8192)
	if err != nil {
		t.Fatalf("Extrapolate: %v", err)
	}
	actual, err := Summarize(compileApp(t, "uh3d", 8192), 0)
	if err != nil {
		t.Fatal(err)
	}
	errs := CompareProfiles(ext.Profile, actual)
	for field, e := range errs {
		if e > 0.05 {
			t.Errorf("%s extrapolation error %.1f%%", field, 100*e)
		}
	}
	// Structure fields must be exact.
	if ext.Profile.Neighbors != actual.Neighbors {
		t.Errorf("neighbors %d vs %d", ext.Profile.Neighbors, actual.Neighbors)
	}
	if ext.Profile.Collectives != actual.Collectives {
		t.Errorf("collectives %d vs %d", ext.Profile.Collectives, actual.Collectives)
	}
	// Constant fields select the constant form.
	if ext.Forms["neighbors"] != "constant" {
		t.Errorf("neighbors form = %s", ext.Forms["neighbors"])
	}
}

func TestExtrapolateValidation(t *testing.T) {
	p1, _ := Summarize(compileApp(t, "uh3d", 1024), 0)
	p2, _ := Summarize(compileApp(t, "uh3d", 2048), 0)
	if _, err := Extrapolate([]Profile{p1}, 8192); err == nil {
		t.Error("single profile accepted")
	}
	if _, err := Extrapolate([]Profile{p1, p1}, 8192); err == nil {
		t.Error("duplicate counts accepted")
	}
	if _, err := Extrapolate([]Profile{p1, p2}, 2048); err == nil {
		t.Error("target not beyond inputs accepted")
	}
}

func TestSynthesizeMatchesActualVolumes(t *testing.T) {
	var profiles []Profile
	for _, p := range []int{1024, 2048, 4096} {
		prof, err := Summarize(compileApp(t, "uh3d", p), 0)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, prof)
	}
	ext, err := Extrapolate(profiles, 8192)
	if err != nil {
		t.Fatal(err)
	}
	synth := compileSynth(t, ext.Profile)
	actual := compileApp(t, "uh3d", 8192)
	if synth.Messages != actual.Messages {
		t.Errorf("messages: synth %d vs actual %d", synth.Messages, actual.Messages)
	}
	rel := math.Abs(float64(synth.PayloadBytes())-float64(actual.PayloadBytes())) / float64(actual.PayloadBytes())
	if rel > 0.05 {
		t.Errorf("total bytes off by %.1f%%: %d vs %d", 100*rel, synth.PayloadBytes(), actual.PayloadBytes())
	}
}

func TestSynthesizeTopologyMismatch(t *testing.T) {
	p := Profile{CoreCount: 64, Neighbors: 5, MessagesPerNeighbor: 1, BytesPerMessage: 64}
	if _, err := Synthesize(p); err == nil {
		t.Error("impossible corner degree accepted")
	}
}

func TestSynthesizeSingleRank(t *testing.T) {
	p := Profile{CoreCount: 1, MessagesPerNeighbor: 2, Collectives: 2, CollectiveBytes: 8}
	if prog := compileSynth(t, p); prog.Messages != 0 || prog.Collectives != 2 {
		t.Errorf("single rank: %d messages, %d collectives; want 0, 2", prog.Messages, prog.Collectives)
	}
}

// TestSynthesizeRoundTrip: summarizing the program a profile synthesizes
// gives the profile back, with every collective, when the collectives do
// not divide evenly over the steps and when there are no steps.
func TestSynthesizeRoundTrip(t *testing.T) {
	for _, p := range []Profile{
		{CoreCount: 8, Neighbors: 3, MessagesPerNeighbor: 2, BytesPerMessage: 64, Collectives: 5, CollectiveBytes: 8},
		{CoreCount: 1, Collectives: 3, CollectiveBytes: 8},
	} {
		got, err := Summarize(compileSynth(t, p), 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != p {
			t.Errorf("Summarize(Compile(Synthesize(%+v))) = %+v", p, got)
		}
	}
}

func TestCompareProfilesExactMatch(t *testing.T) {
	p, _ := Summarize(compileApp(t, "uh3d", 1024), 0)
	for field, e := range CompareProfiles(p, p) {
		if e != 0 {
			t.Errorf("%s self-comparison error %g", field, e)
		}
	}
}
