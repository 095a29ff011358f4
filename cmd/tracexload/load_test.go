package main

import (
	"context"
	"encoding/json"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestParseMix(t *testing.T) {
	m, err := parseMix("predict=6,get=3,put=1,study=0")
	if err != nil {
		t.Fatal(err)
	}
	if m.Weights != [numOps]int{6, 3, 1, 0} || m.total != 10 {
		t.Errorf("parsed %+v", m)
	}
	if got := m.String(); got != "predict=6,get=3,put=1" {
		t.Errorf("String() = %q", got)
	}
	for _, bad := range []string{"", "predict", "predict=-1", "collectall=2", "predict=0,get=0"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
}

func TestMixPickDistribution(t *testing.T) {
	m, err := parseMix("predict=3,get=1")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(1, 2))
	var counts [numOps]int
	for i := 0; i < 4000; i++ {
		counts[m.pick(r)]++
	}
	if counts[opPut] != 0 || counts[opStudy] != 0 {
		t.Errorf("zero-weight operations drawn: %v", counts)
	}
	// predict should land near 3/4 of draws.
	if frac := float64(counts[opPredict]) / 4000; frac < 0.70 || frac > 0.80 {
		t.Errorf("predict fraction %.3f, want ≈0.75", frac)
	}
}

func TestParseDeadlines(t *testing.T) {
	cases := []struct {
		in   string
		want DeadlineDist
	}{
		{"none", DeadlineDist{Kind: "none"}},
		{"", DeadlineDist{Kind: "none"}},
		{"fixed:200ms", DeadlineDist{Kind: "fixed", Base: 200 * time.Millisecond}},
		{"exp:1s", DeadlineDist{Kind: "exp", Base: time.Second}},
		{"uniform:50ms-500ms", DeadlineDist{Kind: "uniform", Min: 50 * time.Millisecond, Max: 500 * time.Millisecond}},
	}
	for _, c := range cases {
		got, err := parseDeadlines(c.in)
		if err != nil || got != c.want {
			t.Errorf("parseDeadlines(%q) = %+v, %v; want %+v", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"fixed", "fixed:0s", "uniform:500ms-50ms", "gauss:1s", "exp:-1s"} {
		if _, err := parseDeadlines(bad); err == nil {
			t.Errorf("parseDeadlines(%q) accepted", bad)
		}
	}

	// Draws respect their bounds.
	r := rand.New(rand.NewPCG(3, 4))
	uni := DeadlineDist{Kind: "uniform", Min: 50 * time.Millisecond, Max: 500 * time.Millisecond}
	for i := 0; i < 1000; i++ {
		if d := uni.draw(r); d < uni.Min || d > uni.Max {
			t.Fatalf("uniform draw %v outside [%v, %v]", d, uni.Min, uni.Max)
		}
	}
	if d := (DeadlineDist{Kind: "none"}).draw(r); d != 0 {
		t.Errorf("none draw = %v, want 0", d)
	}
	if d := (DeadlineDist{Kind: "fixed", Base: time.Second}).draw(r); d != time.Second {
		t.Errorf("fixed draw = %v", d)
	}
}

// TestKeyPickerZipf checks the skewed picker concentrates mass on low
// indices while the uniform picker does not.
func TestKeyPickerZipf(t *testing.T) {
	const keys, draws = 64, 20000
	r := rand.New(rand.NewPCG(5, 6))
	zipf := newKeyPicker(r, keys, 1.3)
	uniform := newKeyPicker(r, keys, 0)
	zipfHot, uniHot := 0, 0
	for i := 0; i < draws; i++ {
		if k := zipf.pick(r); k < keys/8 {
			zipfHot++
		}
		if k := uniform.pick(r); k < keys/8 {
			uniHot++
		}
		if k := zipf.pick(r); k < 0 || k >= keys {
			t.Fatalf("zipf pick %d outside [0, %d)", k, keys)
		}
	}
	if frac := float64(zipfHot) / draws; frac < 0.5 {
		t.Errorf("zipf put only %.2f of draws on the hottest eighth", frac)
	}
	if frac := float64(uniHot) / draws; frac < 0.08 || frac > 0.18 {
		t.Errorf("uniform hot fraction %.3f, want ≈0.125", frac)
	}
}

// TestPacerHoldsOfferedRate drives the open-loop pacer on a fake clock
// whose every sleep overshoots by 300 µs, at 800 arrivals per second (a
// mean gap of 1.25 ms). Paced against absolute due times, the arrivals
// offered in a 10 s window all go out within it, and no arrival is later
// than one overshoot. Waiting each gap from the previous wake-up instead
// adds the overshoot to every gap and needs ~12.4 s.
func TestPacerHoldsOfferedRate(t *testing.T) {
	const (
		rate      = 800.0
		window    = 10 * time.Second
		overshoot = 300 * time.Microsecond
	)
	arr := rand.New(rand.NewPCG(7, 9))
	var gaps []time.Duration
	for sum := time.Duration(0); ; {
		gap := time.Duration(arr.ExpFloat64() / rate * float64(time.Second))
		if sum += gap; sum > window {
			break
		}
		gaps = append(gaps, gap)
	}
	clock := time.Unix(0, 0)
	p := newPacer(
		func() time.Time { return clock },
		func(_ context.Context, d time.Duration) bool { clock = clock.Add(d + overshoot); return true },
	)
	for _, gap := range gaps {
		if !p.wait(context.Background(), gap, true) {
			t.Fatal("pacer stopped with its context live")
		}
	}
	if took := clock.Sub(time.Unix(0, 0)); took > window+overshoot {
		t.Errorf("%d arrivals offered in %v took %v to dispatch", len(gaps), window, took)
	}
	if p.maxLate != overshoot {
		t.Errorf("worst lateness %v, want the %v overshoot", p.maxLate, overshoot)
	}
	if p.late == 0 || p.late >= uint64(len(gaps)) {
		t.Errorf("%d of %d arrivals late, want some but not all", p.late, len(gaps))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if p.wait(ctx, 0, true) {
		t.Error("pacer went on after its context ended")
	}
}

func TestLoadConfigValidate(t *testing.T) {
	good := LoadConfig{
		Targets: []string{"http://x"}, Duration: 2 * time.Second, Warmup: time.Second,
		Workers: 4, Keys: 8, Mix: Mix{Weights: [numOps]int{1}, total: 1},
	}
	if err := good.validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []LoadConfig{
		{}, // no address
		func(c LoadConfig) LoadConfig { c.Targets = []string{"http://x", ""}; return c }(good), // empty target
		func(c LoadConfig) LoadConfig { c.Warmup = 3 * time.Second; return c }(good),           // warmup >= duration
		func(c LoadConfig) LoadConfig { c.Workers = 0; return c }(good),                        // no workers
		func(c LoadConfig) LoadConfig { c.Keys = 0; return c }(good),                           // no keys
		func(c LoadConfig) LoadConfig { c.Keys = loadMaxKeys + 1; return c }(good),             // key space overflow
		func(c LoadConfig) LoadConfig { c.Zipf = 0.9; return c }(good),                         // zipf s must exceed 1
		func(c LoadConfig) LoadConfig { c.Rate = -1; return c }(good),                          // negative rate
	}
	for i, c := range bad {
		if err := c.validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestWriteBenchFileMerges(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_serve.json")
	if err := writeBenchFile(path, "uniform", &Report{Requests: 10}); err != nil {
		t.Fatal(err)
	}
	if err := writeBenchFile(path, "zipf", &Report{Requests: 20}); err != nil {
		t.Fatal(err)
	}
	// Re-recording a label overwrites only that label.
	if err := writeBenchFile(path, "uniform", &Report{Requests: 30}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if bf.Benchmark != "tracexd-serving" || bf.UpdatedUnix == 0 {
		t.Errorf("header %+v", bf)
	}
	if len(bf.Runs) != 2 || bf.Runs["uniform"].Requests != 30 || bf.Runs["zipf"].Requests != 20 {
		t.Errorf("runs %+v", bf.Runs)
	}
}

// TestLoadSmoke is the in-Go equivalent of `make bench-serve-smoke`: a
// short low-rate run against an in-process daemon must finish with real
// throughput and no server errors.
func TestLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("load smoke in -short mode")
	}
	base, shutdown, err := startInProcess(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	mix, err := parseMix("predict=6,get=3,put=1")
	if err != nil {
		t.Fatal(err)
	}
	duration, warmup, deadline := 2*time.Second, 500*time.Millisecond, 2*time.Second
	if raceEnabled {
		// The race detector slows the simulation hot loops by an order of
		// magnitude; give the measurement window room to record every
		// operation kind.
		duration, warmup, deadline = 6*time.Second, time.Second, 10*time.Second
	}
	rep, err := runLoad(context.Background(), LoadConfig{
		Targets:  []string{base},
		Duration: duration, Warmup: warmup,
		Rate: 200, Workers: 32, Mix: mix, Keys: 4,
		Deadline:   DeadlineDist{Kind: "fixed", Base: deadline},
		SampleRefs: 2000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || rep.ThroughputRPS == 0 {
		t.Fatalf("no measured throughput: %+v", rep)
	}
	if rep.Status["5xx"] != 0 || rep.Status["error"] != 0 {
		t.Fatalf("server-side failures under light load: %v", rep.Status)
	}
	if rep.Overall.P50Ms <= 0 || rep.Overall.P999Ms < rep.Overall.P50Ms {
		t.Errorf("implausible quantiles: %+v", rep.Overall)
	}
	if pr, ok := rep.Ops["predict"]; !ok || pr.Count == 0 {
		t.Errorf("predict operation unrecorded: %+v", rep.Ops)
	}
}

// TestLoadMultiTarget drives two in-process daemons through -targets style
// round-robin: the run must seed both nodes (collect once, PUT everywhere)
// and finish without server errors on either.
func TestLoadMultiTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-target load smoke in -short mode")
	}
	var targets []string
	for i := 0; i < 2; i++ {
		base, shutdown, err := startInProcess(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer shutdown()
		targets = append(targets, base)
	}
	mix, err := parseMix("predict=3,get=3")
	if err != nil {
		t.Fatal(err)
	}
	duration, warmup := 2*time.Second, 500*time.Millisecond
	if raceEnabled {
		duration, warmup = 6*time.Second, time.Second
	}
	rep, err := runLoad(context.Background(), LoadConfig{
		Targets:  targets,
		Duration: duration, Warmup: warmup,
		Workers: 4, Mix: mix, Keys: 2,
		SampleRefs: 2000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || rep.Status["5xx"] != 0 || rep.Status["error"] != 0 {
		t.Fatalf("multi-target run: %d requests, status %v", rep.Requests, rep.Status)
	}
	if want := targets[0] + "," + targets[1]; rep.Target != want {
		t.Errorf("report target %q, want %q", rep.Target, want)
	}
}
