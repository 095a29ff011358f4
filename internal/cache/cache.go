// Package cache implements the multi-level set-associative cache simulator
// at the heart of the PMaC-style signature collection pipeline. Memory
// address streams are processed on the fly (Figure 2 of the paper) and the
// simulator accumulates per-level hit counters from which the per-basic-block
// cache hit rates in the application signature are derived.
//
// The hierarchy is modeled as inclusive with LRU replacement within each
// set, which is the structure the paper's cache simulator mimics for the
// Cray XT5 / Opteron targets.
package cache

import (
	"fmt"
	"math/bits"
)

// LevelConfig describes the geometry of one cache level.
type LevelConfig struct {
	// Name labels the level ("L1", "L2", ...), used in reports.
	Name string
	// SizeBytes is the total capacity of the level in bytes.
	SizeBytes int
	// Assoc is the set associativity (number of ways). It must divide
	// SizeBytes/LineSize.
	Assoc int
	// LineSize is the cache line size in bytes and must be a power of two.
	// All levels in a hierarchy must share the same line size.
	LineSize int
}

// Validate checks the level geometry for internal consistency.
func (c LevelConfig) Validate() error {
	if c.SizeBytes <= 0 {
		return fmt.Errorf("cache: level %s: non-positive size %d", c.Name, c.SizeBytes)
	}
	if c.LineSize <= 0 || bits.OnesCount(uint(c.LineSize)) != 1 {
		return fmt.Errorf("cache: level %s: line size %d must be a positive power of two", c.Name, c.LineSize)
	}
	if c.Assoc <= 0 {
		return fmt.Errorf("cache: level %s: non-positive associativity %d", c.Name, c.Assoc)
	}
	lines := c.SizeBytes / c.LineSize
	if lines*c.LineSize != c.SizeBytes {
		return fmt.Errorf("cache: level %s: size %d not a multiple of line size %d", c.Name, c.SizeBytes, c.LineSize)
	}
	if lines%c.Assoc != 0 {
		return fmt.Errorf("cache: level %s: %d lines not divisible by associativity %d", c.Name, lines, c.Assoc)
	}
	return nil
}

// Sets returns the number of sets in the level.
func (c LevelConfig) Sets() int { return c.SizeBytes / c.LineSize / c.Assoc }

// linePad keeps a struct's hot fields off host cache lines shared with
// other heap objects: a pad at each end of a struct whose fields one
// goroutine writes on every access. Without the pads two simulators driven
// by different workers could land in one line, and in about half of all
// MultiMAPS sweeps on a 2-vCPU Xeon VM both then ran at half speed. 128
// bytes also covers CPUs that fetch lines in adjacent pairs.
type linePad [128]byte

// noLine marks an unused way. A way holds its line's tag, the line address
// with the set index divided out, so every tag is below noLine on a level
// with two or more sets or with lines of two or more bytes. Only a one-set
// level with 1-byte lines can hold a line tagged noLine; filled tells that
// line from the unused ways there.
const noLine = ^uint64(0)

// level is the runtime state of one cache level. The geometry derived from
// cfg (set count, mask, associativity) is hoisted into flat fields at
// construction so the per-access probe never re-derives it from the config
// struct.
type level struct {
	_       linePad
	cfg     LevelConfig
	sets64  uint64 // uint64(sets), hoisted for the non-power-of-two divide
	setMask uint64 // sets-1 when sets is a power of two, else 0
	setBits uint   // log2(sets) when sets is a power of two
	pow2    bool   // sets is a power of two (one set included)
	assoc   int    // cfg.Assoc, hoisted out of the probe loop
	// ways holds assoc line tags per set, each set most-recent-first, so
	// the last way of a set is its LRU victim. Unused ways hold noLine
	// and sit at the tail of their set.
	ways []uint64
	// filled counts the fills since the last flush, capped at assoc: on a
	// one-set level the first filled ways are exactly the used ones.
	filled int
	hits   uint64
	_      linePad
}

// Options tunes optional simulator hardware features.
type Options struct {
	// NextLinePrefetch enables a stream-following hardware prefetcher:
	// two consecutive demand misses to adjacent lines arm a stream, which
	// then stays ahead of the access pattern — each demand hit on a
	// prefetched line pulls in the next one. Random access patterns never
	// arm a stream, so they pay no prefetch traffic. Prefetch fills are
	// counted separately and never as hits or demand accesses.
	NextLinePrefetch bool
}

// Simulator is a multi-level inclusive cache simulator. It is not safe for
// concurrent use; create one Simulator per worker goroutine.
type Simulator struct {
	_      linePad
	levels []level
	shift  uint // log2(line size), shared by every level
	opts   Options
	// memAccesses counts references that missed every level.
	memAccesses uint64
	// totalRefs counts all references issued to the hierarchy.
	totalRefs uint64
	// prefetchFills counts lines installed by the prefetcher.
	prefetchFills uint64
	// lastMissBlk detects back-to-back misses on adjacent lines (stream
	// detection); ^0 when no previous miss.
	lastMissBlk uint64
	// pfLines marks line addresses installed by the prefetcher but not yet
	// demanded; a demand hit on such a line keeps the stream running.
	pfLines map[uint64]bool
	_       linePad
}

// NewSimulator builds a Simulator for the given hierarchy with default
// options (no prefetcher).
func NewSimulator(levels []LevelConfig) (*Simulator, error) {
	return NewSimulatorOpts(levels, Options{})
}

// NewSimulatorOpts builds a Simulator for the given hierarchy, ordered
// nearest (L1) first, with the given options. All levels must share the
// same line size and each level must be at least as large as the previous
// one (inclusive hierarchy).
func NewSimulatorOpts(levels []LevelConfig, opts Options) (*Simulator, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("cache: hierarchy needs at least one level")
	}
	sim := &Simulator{
		levels:      make([]level, len(levels)),
		shift:       uint(bits.TrailingZeros(uint(levels[0].LineSize))),
		opts:        opts,
		lastMissBlk: ^uint64(0),
	}
	if opts.NextLinePrefetch {
		sim.pfLines = make(map[uint64]bool)
	}
	for i, cfg := range levels {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		if cfg.LineSize != levels[0].LineSize {
			return nil, fmt.Errorf("cache: level %s line size %d differs from L1's %d",
				cfg.Name, cfg.LineSize, levels[0].LineSize)
		}
		if i > 0 && cfg.SizeBytes < levels[i-1].SizeBytes {
			return nil, fmt.Errorf("cache: level %s (%d B) smaller than previous level (%d B); inclusive hierarchy requires monotone sizes",
				cfg.Name, cfg.SizeBytes, levels[i-1].SizeBytes)
		}
		sets := cfg.Sets()
		lv := &sim.levels[i]
		lv.cfg = cfg
		lv.sets64 = uint64(sets)
		lv.assoc = cfg.Assoc
		if bits.OnesCount(uint(sets)) == 1 {
			lv.pow2 = true
			lv.setMask = uint64(sets - 1)
			lv.setBits = uint(bits.TrailingZeros(uint(sets)))
		}
		lv.ways = make([]uint64, sets*cfg.Assoc)
		lv.flush()
	}
	return sim, nil
}

// front locates line blk: it returns the index of its set's first way and
// its tag, and reports whether the line is already the most recent of its
// set, where a hit changes nothing. It is small enough to inline into both
// lookupFill and AccessBatch. (setBits is below 64, so masking it only
// spares the shift its over-width check.)
func (lv *level) front(blk uint64) (base int, tag uint64, hit bool) {
	var set uint64
	if lv.pow2 {
		set, tag = blk&lv.setMask, blk>>(lv.setBits&63)
	} else {
		tag = blk / lv.sets64
		set = blk - tag*lv.sets64
	}
	base = int(set) * lv.assoc
	return base, tag, lv.ways[base] == tag && (tag != noLine || lv.filled > 0)
}

// lookupFill probes the level for line blk and reports whether it hit. A
// hit moves the line to the front of its set; a miss shifts the set down
// one way, evicting the least recent line (or an unused way), and inserts
// the line at the front.
func (lv *level) lookupFill(blk uint64) bool {
	base, tag, hit := lv.front(blk)
	if hit {
		return true
	}
	ways := lv.ways[base : base+lv.assoc]
	prev := ways[0]
	// Scan and shift in one pass: each way takes its predecessor's tag
	// until the line turns up, which leaves ways[0] free for it.
	for k := 1; k < len(ways); k++ {
		cur := ways[k]
		ways[k] = prev
		if cur == tag && (tag != noLine || k < lv.filled) {
			ways[0] = tag
			return true
		}
		prev = cur
	}
	ways[0] = tag
	if lv.filled < lv.assoc {
		lv.filled++
	}
	return false
}

// flush empties every set of the level.
func (lv *level) flush() {
	for i := range lv.ways {
		lv.ways[i] = noLine
	}
	lv.filled = 0
}

// Access simulates one memory reference to addr. It returns the zero-based
// index of the level that hit, or len(levels) if the reference went to main
// memory. Missing levels are filled (inclusive hierarchy), evicting the LRU
// way in each set.
func (s *Simulator) Access(addr uint64) int {
	s.totalRefs++
	blk := addr >> s.shift
	hitLevel := len(s.levels)
	for i := range s.levels {
		lv := &s.levels[i]
		if lv.lookupFill(blk) {
			lv.hits++
			hitLevel = i
			break
		}
	}
	if !s.opts.NextLinePrefetch {
		if hitLevel == len(s.levels) {
			s.memAccesses++
		}
		return hitLevel
	}
	if hitLevel == len(s.levels) {
		s.memAccesses++
		// Stream detection: a second miss on the adjacent line arms the
		// stream and prefetches the line after it.
		if blk == s.lastMissBlk+1 {
			s.prefetchLine(blk + 1)
		}
		s.lastMissBlk = blk
	} else if s.pfLines[blk] {
		// Demand hit on a prefetched line: keep the stream ahead.
		delete(s.pfLines, blk)
		s.prefetchLine(blk + 1)
	}
	return hitLevel
}

// prefetchLine installs one line hierarchy-wide on behalf of the stream
// prefetcher, without touching demand accounting. The installed line is
// the one holding address blk<<shift, which wraps at the top of the
// address space.
func (s *Simulator) prefetchLine(blk uint64) {
	line := blk << s.shift >> s.shift
	already := true
	for i := range s.levels {
		if !s.levels[i].lookupFill(line) {
			already = false
		}
	}
	if !already {
		s.prefetchFills++
		s.pfLines[blk] = true
	}
}

// AccessBatch simulates every address in addrs in order, with the effect
// of one Access per address. A reference whose line is already the most
// recent of its L1 set, and carries no prefetch mark, changes only the
// reference and L1 hit counts: it is counted locally, and the counts are
// added once per batch. Every other reference goes through Access.
func (s *Simulator) AccessBatch(addrs []uint64) {
	l1 := &s.levels[0]
	shift := s.shift & 63 // below 64 already; the mask drops the shift's check
	var front uint64
	for _, a := range addrs {
		blk := a >> shift
		if _, _, hit := l1.front(blk); hit && (len(s.pfLines) == 0 || !s.pfLines[blk]) {
			front++
			continue
		}
		s.Access(a)
	}
	s.totalRefs += front
	l1.hits += front
}

// PrefetchFillCount returns the number of prefetch fills since the last
// counter reset without allocating a full Counters snapshot.
func (s *Simulator) PrefetchFillCount() uint64 { return s.prefetchFills }

// Counters is a snapshot of the simulator's hit/miss accounting.
type Counters struct {
	// Refs is the total number of references issued.
	Refs uint64
	// LevelHits[i] is the number of references that hit at level i
	// (local, not cumulative).
	LevelHits []uint64
	// MemAccesses is the number of references that missed every level.
	MemAccesses uint64
	// PrefetchFills is the number of lines installed by the hardware
	// prefetcher (zero when disabled).
	PrefetchFills uint64
}

// Counters returns a snapshot of the accounting since the last reset.
func (s *Simulator) Counters() Counters {
	c := Counters{
		Refs:          s.totalRefs,
		LevelHits:     make([]uint64, len(s.levels)),
		MemAccesses:   s.memAccesses,
		PrefetchFills: s.prefetchFills,
	}
	for i := range s.levels {
		c.LevelHits[i] = s.levels[i].hits
	}
	return c
}

// ResetCounters zeroes the hit/miss accounting without disturbing cache
// contents. Signature collection resets counters at basic-block boundaries
// while keeping the warmed hierarchy, matching on-the-fly processing.
func (s *Simulator) ResetCounters() {
	s.totalRefs = 0
	s.memAccesses = 0
	s.prefetchFills = 0
	for i := range s.levels {
		s.levels[i].hits = 0
	}
}

// Flush invalidates all cache contents, disarms the prefetcher and zeroes
// the counters: a flushed simulator behaves exactly as a new one. It does
// not allocate.
func (s *Simulator) Flush() {
	s.ResetCounters()
	for i := range s.levels {
		s.levels[i].flush()
	}
	s.lastMissBlk = ^uint64(0)
	clear(s.pfLines)
}

// CumulativeHitRates returns, for each level i, the fraction of all
// references that were resolved at level i or nearer (this is the "hit rate
// in all levels of the target system" convention used by the paper's Table
// II, where deeper levels always show rates at least as high as nearer
// ones). It returns zeros when no references were issued.
func (c Counters) CumulativeHitRates() []float64 {
	rates := make([]float64, len(c.LevelHits))
	if c.Refs == 0 {
		return rates
	}
	var cum uint64
	for i, h := range c.LevelHits {
		cum += h
		rates[i] = float64(cum) / float64(c.Refs)
	}
	return rates
}

// LocalHitRates returns, for each level, hits divided by the references
// that reached that level. A level that was never reached reports 0.
func (c Counters) LocalHitRates() []float64 {
	rates := make([]float64, len(c.LevelHits))
	remaining := c.Refs
	for i, h := range c.LevelHits {
		if remaining > 0 {
			rates[i] = float64(h) / float64(remaining)
		}
		remaining -= h
	}
	return rates
}
