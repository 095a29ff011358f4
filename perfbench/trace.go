package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer's public API.
// Every op has a root span (name "op") that its layer calls point to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the traced window began
	End    int64  `json:"end_ns"`
	// Replayed marks a call the benchmark repeated beside the op with the
	// op's own inputs (a decode, an encode or a store write the server
	// performs internally); it runs after the op's root span has closed.
	Replayed bool   `json:"replayed,omitempty"`
	Tier     string `json:"tier,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans in memory; writeSpans flushes them at exit.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return t.at(time.Now()) }

// at converts a wall-clock time into the tracer's timeline.
func (t *tracer) at(x time.Time) int64 { return int64(x.Sub(t.t0)) }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// child records a layer call made on the op's own timeline.
func (t *tracer) child(parent opSpan, name, layer string, fn func() string) {
	start := t.now()
	tier := fn()
	t.add(span{Parent: parent.root, Op: parent.index, Name: name, Layer: layer, Start: start, End: t.now(), Tier: tier})
}

// replay records a call repeated beside the op.
func (t *tracer) replay(parent opSpan, name, layer string, fn func()) {
	start := t.now()
	fn()
	t.add(span{Parent: parent.root, Op: parent.index, Name: name, Layer: layer, Start: start, End: t.now(), Replayed: true})
}

// opSpan identifies the op a layer call belongs to.
type opSpan struct {
	index int
	root  int64
}

// snapshot returns the recorded spans in ID order.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	return spans
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes is the attribution of a traced window's time to layers.
type layerTimes struct {
	ops int
	// self sums each layer's self time in nanoseconds over all ops. The
	// op root's self time is the time no layer call covers: the server's
	// own overhead on HTTP workloads, orchestration in pipeline-cold.
	self map[string]int64
	// byName sums the layer calls' durations per call name; calls counts
	// them; tiers counts engine.collect calls per provenance tier and
	// diskNS sums the disk-tier ones.
	byName map[string]int64
	calls  map[string]int
	tiers  map[string]int
	diskNS int64
	// coverage is the mean share of an op's duration its layer calls
	// account for.
	coverage float64
}

// attribute computes layer self times. A child's self time is its whole
// duration (the benchmark records no grandchildren). A root's self time
// is its duration minus the union of its children's intervals within it,
// minus the durations of its replayed children.
func attribute(spans []span) layerTimes {
	lt := layerTimes{self: map[string]int64{}, byName: map[string]int64{}, calls: map[string]int{}, tiers: map[string]int{}}
	roots := map[int64]span{}
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent == 0 {
			roots[s.ID] = s
			continue
		}
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	var covSum float64
	for id, root := range roots {
		var covered int64
		var nested [][2]int64
		for _, k := range kids[id] {
			lt.self[k.Layer] += k.dur()
			lt.byName[k.Name] += k.dur()
			lt.calls[k.Name]++
			if k.Tier != "" {
				lt.tiers[k.Tier]++
			}
			if k.Tier == "disk" {
				lt.diskNS += k.dur()
			}
			if k.Replayed {
				covered += k.dur()
				continue
			}
			lo, hi := max(k.Start, root.Start), min(k.End, root.End)
			if hi > lo {
				nested = append(nested, [2]int64{lo, hi})
			}
		}
		covered += unionLen(nested)
		d := root.dur()
		lt.self[root.Layer] += max(0, d-covered)
		if d > 0 {
			covSum += min(1, float64(covered)/float64(d))
		}
		lt.ops++
	}
	if lt.ops > 0 {
		lt.coverage = covSum / float64(lt.ops)
	}
	return lt
}

// unionLen is the total length of a set of intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	started := false
	for _, x := range iv {
		if !started || x[0] > end {
			total += x[1] - x[0]
			end = x[1]
			started = true
			continue
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}
