package cache

import (
	"fmt"
	"math/bits"

	"tracex/internal/trace"
)

// The recorder's last-access table is split into pages of pageLines
// consecutive lines.
const (
	pageBits  = 12
	pageLines = 1 << pageBits
	// noPage is never a page key (keys are line addresses shifted right
	// by pageBits), so it marks an empty last-page cache.
	noPage = ^uint64(0)
)

// page holds the last access time of pageLines consecutive lines; 0 means
// the line has not been seen since the last Reset.
type page [pageLines]int32

// ReuseRecorder measures LRU stack distances of an address stream at cache-
// line granularity using the Bennett–Kruskal algorithm: a table from line
// to its last access time plus a Fenwick tree of "most recent access"
// markers over time slots. Each reference costs O(log n) in the number of
// time slots.
//
// The table is paged: dense pages of 4096 lines, reached through a
// one-entry last-page cache with a small map of pages behind it. A stream
// that stays within one page's lines finds its page without hashing. Reset
// keeps the pages for reuse, so a recorder reused across blocks stops
// allocating once it has seen their regions.
//
// The recorder is the collection-side half of the analytical cache model: it
// replaces the per-geometry cache simulation with a single geometry-free
// measurement, from which Analytical derives hit rates for any hierarchy.
// Like Simulator, a ReuseRecorder is not safe for concurrent use; create one
// per worker goroutine (pebil's arena keeps one per scratch).
type ReuseRecorder struct {
	_        linePad
	shift    uint
	lineSize int
	pages    map[uint64]*page
	// hotKey/hot cache the page of the previous reference.
	hotKey uint64
	hot    *page
	// spare holds zeroed pages released by Reset.
	spare []*page
	// tree is a 1-based Fenwick tree over time slots 1..size; slot t holds
	// a marker iff t is the most recent access time of some tracked line.
	tree []int32
	size int
	now  int32
	// lines counts the tracked lines, which is the number of markers:
	// every marker sits at or before now.
	lines int32
	// stale marks a tree that lags the table: Warm stamps last-access
	// times only, and the tree is rebuilt from the stamps before the next
	// distance is measured.
	stale bool
	_     linePad
}

// NewReuseRecorder builds a recorder for the given line size with initial
// capacity for the given number of references before a (rare) renumbering
// pass. Callers that know their stream length up front should pass it so
// the steady state allocates nothing.
func NewReuseRecorder(lineSize, capacity int) (*ReuseRecorder, error) {
	if lineSize <= 0 || bits.OnesCount(uint(lineSize)) != 1 {
		return nil, fmt.Errorf("cache: reuse recorder line size %d must be a positive power of two", lineSize)
	}
	if capacity < 1 {
		capacity = 1
	}
	r := &ReuseRecorder{
		shift:    uint(bits.TrailingZeros(uint(lineSize))),
		lineSize: lineSize,
		pages:    make(map[uint64]*page),
		hotKey:   noPage,
		tree:     make([]int32, capacity+1),
		size:     capacity,
	}
	return r, nil
}

// LineSize returns the recorder's line granularity in bytes.
func (r *ReuseRecorder) LineSize() int { return r.lineSize }

// Reset clears all tracked state and ensures capacity for the given number
// of references, reusing the existing tree and pages.
func (r *ReuseRecorder) Reset(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	if capacity > r.size {
		r.tree = make([]int32, capacity+1)
		r.size = capacity
	} else {
		clear(r.tree)
	}
	for _, p := range r.pages {
		clear(p[:])
		r.spare = append(r.spare, p)
	}
	clear(r.pages)
	r.hotKey, r.hot = noPage, nil
	r.now, r.lines = 0, 0
	r.stale = false
}

// slot returns the last-access entry of line blk.
func (r *ReuseRecorder) slot(blk uint64) *int32 {
	if key := blk >> pageBits; key != r.hotKey {
		p := r.pages[key]
		if p == nil {
			if n := len(r.spare); n > 0 {
				p = r.spare[n-1]
				r.spare = r.spare[:n-1]
			} else {
				p = new(page)
			}
			r.pages[key] = p
		}
		r.hotKey, r.hot = key, p
	}
	return &r.hot[blk&(pageLines-1)]
}

// add applies a delta at time slot t.
func (r *ReuseRecorder) add(t int32, delta int32) {
	for i := int(t); i <= r.size; i += i & -i {
		r.tree[i] += delta
	}
}

// sum returns the number of markers in slots [1, t].
func (r *ReuseRecorder) sum(t int32) int32 {
	var s int32
	for i := int(t); i > 0; i -= i & -i {
		s += r.tree[i]
	}
	return s
}

// compact renumbers the live markers to the lowest time slots, keeping
// their order and reclaiming the slots freed by marker moves. A line whose
// last access was slot t moves to slot rank(t), the number of markers in
// [1, t]. It grows the tree when the live set itself fills most of the
// index (a stream of mostly-distinct lines).
func (r *ReuseRecorder) compact() {
	if r.stale {
		r.rebuild()
	}
	// Undo the Fenwick sums (the inverse of the linear-time build) to get
	// each slot's marker, then prefix-sum the markers into ranks.
	rank := r.tree
	for i := r.size; i > 0; i-- {
		if j := i + i&-i; j <= r.size {
			rank[j] -= rank[i]
		}
	}
	for i := 1; i <= r.size; i++ {
		rank[i] += rank[i-1]
	}
	for _, p := range r.pages {
		for i, t := range p {
			if t != 0 {
				p[i] = rank[t]
			}
		}
	}
	if need := 2 * (int(r.lines) + 1); need > r.size {
		r.tree = make([]int32, 2*need+1)
		r.size = 2 * need
	} else {
		clear(r.tree)
	}
	for i := 1; i <= int(r.lines); i++ {
		r.tree[i] = 1
	}
	r.build()
	r.now = r.lines
}

// rebuild recomputes a stale tree from the table: one marker at each
// tracked line's last access time.
func (r *ReuseRecorder) rebuild() {
	clear(r.tree)
	for _, p := range r.pages {
		for _, t := range p {
			if t != 0 {
				r.tree[t] = 1
			}
		}
	}
	r.build()
	r.stale = false
}

// build turns per-slot markers into Fenwick sums in linear time.
func (r *ReuseRecorder) build() {
	for i := 1; i <= r.size; i++ {
		if j := i + i&-i; j <= r.size {
			r.tree[j] += r.tree[i]
		}
	}
}

// access advances time by one reference to addr and returns the reference's
// reuse distance in lines, or cold=true for a line never seen before.
func (r *ReuseRecorder) access(addr uint64) (dist uint64, cold bool) {
	if r.stale {
		r.rebuild()
	}
	if int(r.now) >= r.size {
		r.compact()
	}
	last := r.slot(addr >> r.shift)
	if prev := *last; prev != 0 {
		// Markers strictly after prev are the distinct other lines
		// touched since the line's previous access (its own marker sits
		// at prev and is excluded).
		dist = uint64(r.lines - r.sum(prev))
		r.add(prev, -1)
	} else {
		cold = true
		r.lines++
	}
	r.now++
	r.add(r.now, 1)
	*last = r.now
	return dist, cold
}

// Warm streams addrs through the recorder without recording distances,
// mirroring the cache-warming phase of exact collection: the tracked-line
// state reaches steady state before sampling begins. It only stamps each
// line's last access time; the tree catches up in one linear pass when a
// distance is next measured.
func (r *ReuseRecorder) Warm(addrs []uint64) {
	for _, a := range addrs {
		if int(r.now) >= r.size {
			r.compact()
		}
		r.stale = true
		last := r.slot(a >> r.shift)
		if *last == 0 {
			r.lines++
		}
		r.now++
		*last = r.now
	}
}

// Record streams addrs through the recorder, accumulating each reference's
// reuse distance (or coldness) into h.
func (r *ReuseRecorder) Record(addrs []uint64, h *trace.ReuseHistogram) {
	for _, a := range addrs {
		d, cold := r.access(a)
		if cold {
			h.AddCold()
		} else {
			h.Add(d)
		}
	}
}
