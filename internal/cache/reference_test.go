package cache

// referenceSimulator is the age-stamped simulator the recency-ordered sets
// replaced, kept as the oracle of the differential tests without its
// hoisted set-index fast path: each way holds a tag, a valid bit and the
// tick of its last touch, a probe scans the set for the tag, and a miss
// fills the first invalid way or else the way with the oldest tick (the
// lowest way index on a tie).
type referenceSimulator struct {
	levels        []*refLevel
	tick          uint64
	opts          Options
	memAccesses   uint64
	totalRefs     uint64
	prefetchFills uint64
	lastMissBlk   uint64
	pfLines       map[uint64]bool
}

type refLevel struct {
	sets  uint64
	assoc int
	shift uint
	tags  []uint64
	ages  []uint64
	valid []bool
	hits  uint64
}

// newReferenceSimulator builds the oracle for a hierarchy that
// NewSimulatorOpts accepts.
func newReferenceSimulator(levels []LevelConfig, opts Options) *referenceSimulator {
	sim := &referenceSimulator{opts: opts, lastMissBlk: ^uint64(0)}
	if opts.NextLinePrefetch {
		sim.pfLines = make(map[uint64]bool)
	}
	for _, cfg := range levels {
		n := cfg.Sets() * cfg.Assoc
		sim.levels = append(sim.levels, &refLevel{
			sets:  uint64(cfg.Sets()),
			assoc: cfg.Assoc,
			shift: lineShift(cfg.LineSize),
			tags:  make([]uint64, n),
			ages:  make([]uint64, n),
			valid: make([]bool, n),
		})
	}
	return sim
}

func lineShift(lineSize int) uint {
	var s uint
	for 1<<s < lineSize {
		s++
	}
	return s
}

func (s *referenceSimulator) lookupFill(lv *refLevel, addr uint64, countHit bool) bool {
	blk := addr >> lv.shift
	base := int(blk%lv.sets) * lv.assoc
	victim := base
	var victimAge uint64 = ^uint64(0)
	for w := base; w < base+lv.assoc; w++ {
		if lv.valid[w] && lv.tags[w] == blk {
			lv.ages[w] = s.tick
			if countHit {
				lv.hits++
			}
			return true
		}
		if !lv.valid[w] {
			if victimAge != 0 {
				victim, victimAge = w, 0
			}
		} else if lv.ages[w] < victimAge {
			victim, victimAge = w, lv.ages[w]
		}
	}
	lv.tags[victim] = blk
	lv.ages[victim] = s.tick
	lv.valid[victim] = true
	return false
}

func (s *referenceSimulator) Access(addr uint64) int {
	s.tick++
	s.totalRefs++
	hitLevel := len(s.levels)
	for i, lv := range s.levels {
		if s.lookupFill(lv, addr, true) {
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
	blk := addr >> s.levels[0].shift
	if hitLevel == len(s.levels) {
		s.memAccesses++
		if blk == s.lastMissBlk+1 {
			s.prefetchLine(blk + 1)
		}
		s.lastMissBlk = blk
	} else if s.pfLines[blk] {
		delete(s.pfLines, blk)
		s.prefetchLine(blk + 1)
	}
	return hitLevel
}

func (s *referenceSimulator) prefetchLine(blk uint64) {
	addr := blk << s.levels[0].shift
	already := true
	for _, lv := range s.levels {
		if !s.lookupFill(lv, addr, false) {
			already = false
		}
	}
	if !already {
		s.prefetchFills++
		s.pfLines[blk] = true
	}
}

func (s *referenceSimulator) Counters() Counters {
	c := Counters{
		Refs:          s.totalRefs,
		LevelHits:     make([]uint64, len(s.levels)),
		MemAccesses:   s.memAccesses,
		PrefetchFills: s.prefetchFills,
	}
	for i, lv := range s.levels {
		c.LevelHits[i] = lv.hits
	}
	return c
}

func (s *referenceSimulator) ResetCounters() {
	s.totalRefs, s.memAccesses, s.prefetchFills = 0, 0, 0
	for _, lv := range s.levels {
		lv.hits = 0
	}
}
