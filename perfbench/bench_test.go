package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"

	"tracex/internal/obs"
)

// benchmarkFile is the part of ../BENCHMARK.json these tests check.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestOpSequenceIsAPureFunctionOfTheSeed(t *testing.T) {
	for name, wl := range workloads {
		seq := func(seed int64, phase int) []op {
			var out []op
			for c := 0; c < wl.callers; c++ {
				for j := 0; j < 200; j++ {
					out = append(out, wl.opAt(seed, phase, c, j))
				}
			}
			return out
		}
		if !reflect.DeepEqual(seq(7, phaseMain), seq(7, phaseMain)) {
			t.Errorf("%s: seed 7 gave two different sequences", name)
		}
		if reflect.DeepEqual(seq(7, phaseMain), seq(8, phaseMain)) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", name)
		}
		if reflect.DeepEqual(seq(7, phaseMain), seq(7, phaseTraced)) {
			t.Errorf("%s: the two phases share a sequence", name)
		}
	}
}

func TestStudyIdentitiesNeverRepeatInARun(t *testing.T) {
	type ident struct{ cores, refs int }
	seen := map[ident]bool{}
	for _, phase := range []int{phaseMain, phaseTraced} {
		for j := 0; j < 5000; j++ {
			o := studyOp(3, phase, j)
			if o.b%2 == 0 || o.b < studyMinB || o.b >= studyMinB+2*studyBChoices {
				t.Fatalf("op %d: b = %d outside the odd band", j, o.b)
			}
			for _, c := range []int{o.b, 2 * o.b, 4 * o.b, 8 * o.b} {
				id := ident{c, o.sampleRefs}
				if seen[id] {
					t.Fatalf("phase %d op %d repeats collection identity %+v", phase, j, id)
				}
				seen[id] = true
			}
		}
	}
}

func TestIdentitiesArePartitionedByCaller(t *testing.T) {
	for _, n := range []int{16, 96} {
		for c := 0; c < callers; c++ {
			for j := 0; j < 1000; j++ {
				o := identityOp(5, phaseMain, callers, n, c, j, serveMix)
				if o.ident%callers != c || o.ident < 0 || o.ident >= n {
					t.Fatalf("caller %d got identity %d of %d", c, o.ident, n)
				}
				if o.index != j*callers+c {
					t.Fatalf("caller %d op %d has index %d", c, j, o.index)
				}
			}
		}
	}
}

func TestServeMixIsSixThreeOne(t *testing.T) {
	n := map[string]int{}
	for d := 0; d < 10; d++ {
		n[serveMix(d)]++
	}
	if n[kindPredict] != 6 || n[kindGet] != 3 || n[kindPut] != 1 {
		t.Fatalf("mix %v, want predict 6, get 3, put 1", n)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnitsMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	w := &window{quiet: quietStats{lat: latStats{n: 3, p50: 2, tail: 3}, seconds: 1, cpu: 1}}
	check := func(kind string, got map[string]metric, want map[string]string) {
		var gotNames, wantNames []string
		for n, m := range got {
			gotNames = append(gotNames, n)
			if !nameRE.MatchString(n) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s metric %q has a malformed name or unit %q", kind, n, m.Unit)
			}
			if want[n] != m.Unit {
				t.Errorf("%s metric %q: unit %q, BENCHMARK.json says %q", kind, n, m.Unit, want[n])
			}
		}
		for n := range want {
			wantNames = append(wantNames, n)
		}
		sort.Strings(gotNames)
		sort.Strings(wantNames)
		if !reflect.DeepEqual(gotNames, wantNames) {
			t.Errorf("%s metrics %v, BENCHMARK.json lists %v", kind, gotNames, wantNames)
		}
	}
	e2e := map[string]string{}
	for _, m := range f.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	check("end-to-end", endToEndMetrics(w, []float64{1}), e2e)
	layer := map[string]string{}
	for _, m := range f.PerLayer {
		layer[m.Name] = m.Unit
	}
	check("per-layer", layerMetrics(attribute(nil), w, w, nil, nil, 0, 0), layer)

	var names []string
	for _, wl := range f.Workloads {
		names = append(names, wl.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
}

// tail_ms keeps minBeyond samples beyond its percentile: quietSlices adds
// slices until it does (TestQuietSlicesWidenForTheTail), and a run whose
// whole window falls short fails. At the workload's minimum op rate, a
// window of the configured length is long enough.
func TestTailPercentileHasTenSamplesBeyondIt(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, bw := range f.Workloads {
		wl := workloads[bw.Name]
		if wl == nil {
			t.Fatalf("no workload %q", bw.Name)
		}
		n := int(wl.minOpsPerSec * float64(f.RunSeconds))
		if b := beyond(n, wl.tailPct); b < minBeyond {
			t.Errorf("%s: p%g of %d ops has %d samples beyond it", bw.Name, wl.tailPct, n, b)
		}
		if tag := fmt.Sprintf("tail_ms is p%g", wl.tailPct); !strings.Contains(bw.Why, tag) {
			t.Errorf("%s: BENCHMARK.json why %q does not record %q", bw.Name, bw.Why, tag)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(xs, 75); got != 4 {
		t.Errorf("p75 = %v, want 4", got)
	}
	if got := beyond(100, 90); got != 10 {
		t.Errorf("beyond(100, 90) = %d, want 10", got)
	}
}

// slicedWindow builds a window of 1 s slices with the given steal shares
// (%) and 20 ops ending in each slice, the ops of slice i taking i+1 ms.
func slicedWindow(steal []uint64) ([]sample, []opTime) {
	var samples []sample
	var ops []opTime
	var tot, st uint64
	for i := 0; i <= len(steal); i++ {
		samples = append(samples, sample{at: int64(i) * 1e9, ticks: hostTicks{total: tot, steal: st}, cpu: float64(i)})
		if i == len(steal) {
			break
		}
		tot += 100
		st += steal[i]
		for k := 1; k <= 20; k++ {
			ops = append(ops, opTime{end: int64(i)*1e9 + int64(k)*4e7, ms: float64(i + 1)})
		}
	}
	return samples, ops
}

func TestQuietSlicesDropStolenTime(t *testing.T) {
	// The second and fourth slices lose 20% of host ticks.
	samples, ops := slicedWindow([]uint64{0, 20, 0, 20})
	q := quietSlices(samples, ops, 50)
	if q.lat.n != 40 || q.seconds != 2 || q.cpu != 2 || q.steal != 0 || q.share != 0.5 {
		t.Fatalf("quiet slices %+v, want the first and third", q)
	}
	// Their ops take 1 and 3 ms, 20 of each.
	if q.lat.p50 != 2 {
		t.Fatalf("kept ops have median %v ms, want 2", q.lat.p50)
	}
}

func TestQuietSlicesWidenForTheTail(t *testing.T) {
	// The two calm slices hold 40 ops, 8 of them beyond p80; the least
	// stolen of the others is added, and the most stolen stays out.
	samples, ops := slicedWindow([]uint64{0, 10, 0, 30})
	q := quietSlices(samples, ops, 80)
	if q.lat.n != 60 || q.seconds != 3 || beyond(q.lat.n, 80) < minBeyond {
		t.Fatalf("kept %d ops over %v s, want the three least stolen slices", q.lat.n, q.seconds)
	}
	// Ops of 1, 2 and 3 ms have p80 3; with the most stolen slice's 4 ms
	// ops in place of the 2 ms ones it would be 4.
	if q.lat.tail != 3 {
		t.Fatalf("kept ops have p80 %v ms, want 3: the most stolen slice was kept", q.lat.tail)
	}
	// A window too short for the tail is kept whole.
	samples, ops = slicedWindow([]uint64{0, 10})
	if q := quietSlices(samples, ops, 95); q.lat.n != 40 || q.share != 1 {
		t.Fatalf("kept %d ops (share %v), want the whole window", q.lat.n, q.share)
	}
}

// nopInstance completes every op at once, so a window holds as many op
// records as the benchmark can write.
type nopInstance struct{}

func (nopInstance) do(context.Context, op, *tracer, opSpan) opResult { return opResult{} }
func (nopInstance) registry() *obs.Registry                          { return nil }
func (nopInstance) profile() (time.Duration, float64)                { return 0, 0 }
func (nopInstance) close() error                                     { return nil }

// heap_mb is the program's live heap: the window's per-op records, which
// grow with the ops completed, are gone when it is measured.
func TestHeapLeavesOutOpRecords(t *testing.T) {
	wl := &workload{callers: 1, tailPct: 50, opAt: func(int64, int, int, int) op { return op{} }}
	base := liveHeapMB()
	w := runWindow(context.Background(), wl, nopInstance{}, 1, phaseMain, 0.1, nil)
	records := float64(w.ok()) * float64(unsafe.Sizeof(opTime{})) / (1 << 20)
	if records < 2 {
		t.Skipf("the window completed only %d ops", w.ok())
	}
	if grew := w.heapMB - base; grew > records/2 {
		t.Errorf("live heap grew by %.2f MB over a window whose %d op records take %.2f MB", grew, w.ok(), records)
	}
}

func TestAttributeSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Layer: "server", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "engine.collect", Layer: "engine", Start: 10, End: 30, Tier: "disk"},
		{ID: 3, Parent: 1, Name: "engine.predict", Layer: "psins", Start: 20, End: 60},
		{ID: 4, Parent: 1, Name: "wire.encode", Layer: "wire", Start: 120, End: 130, Replayed: true},
	}
	lt := attribute(spans)
	// Nested calls cover 10..60; the replayed encode adds 10.
	if lt.self["server"] != 40 || lt.self["engine"] != 20 || lt.self["psins"] != 40 || lt.self["wire"] != 10 {
		t.Errorf("self times %v", lt.self)
	}
	if lt.coverage != 0.6 || lt.tiers["disk"] != 1 || lt.diskNS != 20 || lt.ops != 1 {
		t.Errorf("coverage %v, tiers %v, diskNS %d, ops %d", lt.coverage, lt.tiers, lt.diskNS, lt.ops)
	}
}

// checkSpanLayout checks the layout attribute relies on: every layer call
// the op made lies within its root span, and every replayed call begins
// after the root span has closed.
func checkSpanLayout(t *testing.T, spans []span) {
	t.Helper()
	roots := map[int64]span{}
	for _, s := range spans {
		if s.Parent == 0 {
			roots[s.ID] = s
		}
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		root, ok := roots[s.Parent]
		switch {
		case !ok:
			t.Errorf("span %+v has no root", s)
		case s.Replayed && s.Start < root.End:
			t.Errorf("replayed %s of op %d starts at %d, inside its op (%d..%d)", s.Name, s.Op, s.Start, root.Start, root.End)
		case !s.Replayed && (s.Start < root.Start || s.End > root.End):
			t.Errorf("%s of op %d (%d..%d) lies outside its op (%d..%d)", s.Name, s.Op, s.Start, s.End, root.Start, root.End)
		}
	}
}

// A predict, a GET and a PUT of a traced serve-tiers window: the op's
// latency is its root span, the server's replayed calls follow it, and the
// root's self time is the HTTP time minus the engine calls within it and
// minus the replayed calls.
func TestTracedServeOpSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up serve-tiers")
	}
	ctx := context.Background()
	wl := workloads["serve-tiers"]
	inst, err := wl.setup(ctx, runConfig{traced: true, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := inst.close(); err != nil {
			t.Error(err)
		}
	}()
	want := map[string][]string{
		kindPredict: {"engine.collect", "engine.predict", "wire.decode", "wire.encode"},
		kindGet:     nil,
		kindPut:     {"wire.decode", "store.put"},
	}
	for j := 0; len(want) > 0; j++ {
		o := wl.opAt(1, phaseTraced, 0, j)
		names, ok := want[o.kind]
		if !ok {
			continue
		}
		delete(want, o.kind)
		tr := newTracer()
		r, t0, t1 := runOp(ctx, wl, inst, o, tr)
		if r.err != nil {
			t.Fatalf("%s: %v", o.kind, r.err)
		}
		spans := tr.snapshot()
		checkSpanLayout(t, spans)
		root, kids := spans[0], spans[1:]
		if root.Parent != 0 || root.Start != tr.at(t0) || root.End != tr.at(t1) {
			t.Fatalf("%s: root span %+v, op ran %d..%d", o.kind, root, tr.at(t0), tr.at(t1))
		}
		var got []string
		var nested, replayed int64
		for _, k := range kids {
			got = append(got, k.Name)
			if k.Replayed {
				replayed += k.dur()
			} else {
				nested += k.dur() // a predict's two engine calls run one after the other
			}
		}
		if !reflect.DeepEqual(got, names) {
			t.Errorf("%s: layer calls %v, want %v", o.kind, got, names)
		}
		lt := attribute(spans)
		if self := lt.self["server"]; self != max(0, root.dur()-nested-replayed) {
			t.Errorf("%s: server self time %d, want %d - %d - %d", o.kind, self, root.dur(), nested, replayed)
		}
	}
}

// A short untraced and traced window of every workload: no op fails its
// output check, and a repeated window prints the same digest.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	ctx := context.Background()
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			wl := workloads[name]
			cfg := runConfig{seed: 2, seconds: 1, outDir: t.TempDir(), traced: true}
			inst, err := wl.setup(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := inst.close(); err != nil {
					t.Error(err)
				}
			}()
			first := runWindow(ctx, wl, inst, cfg.seed, phaseMain, cfg.seconds, nil)
			tr := newTracer()
			traced := runWindow(ctx, wl, inst, cfg.seed, phaseTraced, cfg.seconds, tr)
			again := runWindow(ctx, wl, inst, cfg.seed, phaseMain, cfg.seconds, nil)
			for _, w := range []*window{first, traced, again} {
				if w.attempted == 0 || w.failed != 0 {
					t.Fatalf("%d of %d ops failed: %v", w.failed, w.attempted, w.firstErr)
				}
			}
			n := min(len(first.head), len(again.head))
			first.head, again.head = first.head[:n], again.head[:n]
			if first.digest() != again.digest() {
				t.Errorf("digest %s, then %s over the same %d ops", first.digest(), again.digest(), n)
			}
			spans := tr.snapshot()
			checkSpanLayout(t, spans)
			lt := attribute(spans)
			if lt.ops != traced.attempted || lt.coverage <= 0 {
				t.Errorf("traced %d ops, attributed %d with coverage %v", traced.attempted, lt.ops, lt.coverage)
			}
		})
	}
}
