package mpi

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

// referenceValidate is the map-based validator Program.Match replaced,
// kept as the oracle for the differential tests below: it hashes every
// (src, dst, tag) channel into maps and tracks requests in a per-rank map.
func referenceValidate(p *Program) error {
	n := len(p.Ranks)
	if n == 0 {
		return fmt.Errorf("mpi: program has no ranks")
	}
	type chanKey struct{ src, dst, tag int }
	sends := map[chanKey]int{}
	recvs := map[chanKey]int{}
	collectives := make([]int, n)
	for r, evs := range p.Ranks {
		posted := map[int]bool{} // outstanding non-blocking requests
		for i, e := range evs {
			if err := e.Validate(r, n); err != nil {
				return fmt.Errorf("mpi: rank %d event %d: %w", r, i, err)
			}
			switch e.Kind {
			case Send:
				sends[chanKey{r, e.Peer, e.Tag}]++
			case Recv:
				recvs[chanKey{e.Peer, r, e.Tag}]++
			case Isend:
				sends[chanKey{r, e.Peer, e.Tag}]++
				if posted[e.Request] {
					return fmt.Errorf("mpi: rank %d reuses outstanding request %d", r, e.Request)
				}
				posted[e.Request] = true
			case Irecv:
				recvs[chanKey{e.Peer, r, e.Tag}]++
				if posted[e.Request] {
					return fmt.Errorf("mpi: rank %d reuses outstanding request %d", r, e.Request)
				}
				posted[e.Request] = true
			case Wait:
				if !posted[e.Request] {
					return fmt.Errorf("mpi: rank %d waits on unposted request %d", r, e.Request)
				}
				delete(posted, e.Request)
			default:
				if e.Kind.IsCollective() {
					collectives[r]++
				}
			}
		}
		if len(posted) > 0 {
			return fmt.Errorf("mpi: rank %d finishes with %d unwaited requests", r, len(posted))
		}
	}
	for k, ns := range sends {
		if recvs[k] != ns {
			return fmt.Errorf("mpi: %d sends but %d recvs on channel %d→%d tag %d",
				ns, recvs[k], k.src, k.dst, k.tag)
		}
	}
	for k, nr := range recvs {
		if _, ok := sends[k]; !ok && nr > 0 {
			return fmt.Errorf("mpi: %d recvs with no sends on channel %d→%d tag %d",
				nr, k.src, k.dst, k.tag)
		}
	}
	for r := 1; r < n; r++ {
		if collectives[r] != collectives[0] {
			return fmt.Errorf("mpi: rank %d has %d collectives, rank 0 has %d",
				r, collectives[r], collectives[0])
		}
	}
	return nil
}

// chooser is the source of random decisions: *rand.Rand for the quick
// properties, the fuzzer's bytes for FuzzProgramValidate.
type chooser interface{ Intn(n int) int }

// byteChooser draws decisions from fuzz input, answering 0 once drained.
type byteChooser struct{ b []byte }

func (c *byteChooser) Intn(n int) int {
	if len(c.b) == 0 || n <= 1 {
		return 0
	}
	v := int(c.b[0])
	c.b = c.b[1:]
	return v % n
}

// composeProgram builds a program from random Builder calls with valid
// arguments.
func composeProgram(c chooser) (*Program, error) {
	n := []int{1, 2, 3, 4, 8, 12, 27}[c.Intn(7)]
	g, err := NewGrid3D(n)
	if err != nil {
		return nil, err
	}
	b := NewBuilder("diff", n)
	for step := 0; step < 1+c.Intn(6); step++ {
		bytes := uint64(1 + c.Intn(4096))
		switch c.Intn(8) {
		case 0:
			b.ComputeAll(uint64(1+c.Intn(4)), float64(1+c.Intn(10))/10)
		case 1:
			b.Compute(c.Intn(n), uint64(1+c.Intn(4)), 0.5)
		case 2:
			b.HaloExchange3D(g, bytes, c.Intn(3)*10)
		case 3:
			b.HaloExchange3DNonblocking(g, bytes, c.Intn(3)*10)
		case 4:
			b.Allreduce(bytes)
		case 5:
			b.Ring(bytes, c.Intn(3))
		case 6:
			if n > 1 {
				src := c.Intn(n)
				dst := (src + 1 + c.Intn(n-1)) % n
				b.SendRecv(src, dst, c.Intn(3), bytes)
			}
		case 7:
			kinds := []EventKind{Barrier, Bcast, Reduce, Alltoall, Allgather}
			b.Collective(kinds[c.Intn(len(kinds))], c.Intn(n), bytes)
		}
	}
	return b.Build()
}

// pick returns a random (rank, index) among the events satisfying keep, or
// ok=false when there is none.
func pick(p *Program, c chooser, keep func(Event) bool) (r, i int, ok bool) {
	var at [][2]int
	for r, evs := range p.Ranks {
		for i, e := range evs {
			if keep(e) {
				at = append(at, [2]int{r, i})
			}
		}
	}
	if len(at) == 0 {
		return 0, 0, false
	}
	k := at[c.Intn(len(at))]
	return k[0], k[1], true
}

func isP2P(e Event) bool {
	switch e.Kind {
	case Send, Recv, Isend, Irecv:
		return true
	}
	return false
}

// mutate applies one random structural mutation to p in place: drop,
// duplicate or retag a point-to-point event, drop a Wait, reuse a request
// id, or add a collective on one rank.
func mutate(p *Program, c chooser) {
	switch c.Intn(6) {
	case 0: // drop a point-to-point event
		if r, i, ok := pick(p, c, isP2P); ok {
			p.Ranks[r] = append(p.Ranks[r][:i], p.Ranks[r][i+1:]...)
		}
	case 1: // duplicate a point-to-point event
		if r, i, ok := pick(p, c, isP2P); ok {
			evs := p.Ranks[r]
			p.Ranks[r] = append(evs[:i+1], append([]Event{evs[i]}, evs[i+1:]...)...)
		}
	case 2: // retag a point-to-point event
		if r, i, ok := pick(p, c, isP2P); ok {
			p.Ranks[r][i].Tag += 1 + c.Intn(20)
		}
	case 3: // drop a Wait
		if r, i, ok := pick(p, c, func(e Event) bool { return e.Kind == Wait }); ok {
			p.Ranks[r] = append(p.Ranks[r][:i], p.Ranks[r][i+1:]...)
		}
	case 4: // reuse a request id: give a posting another posting's id
		if r, i, ok := pick(p, c, func(e Event) bool { return e.Kind == Isend || e.Kind == Irecv }); ok {
			var ids []int
			for _, e := range p.Ranks[r] {
				if e.Kind == Isend || e.Kind == Irecv {
					ids = append(ids, e.Request)
				}
			}
			p.Ranks[r][i].Request = ids[c.Intn(len(ids))]
		}
	case 5: // add a collective on one rank only
		r := c.Intn(len(p.Ranks))
		i := c.Intn(len(p.Ranks[r]) + 1)
		e := Event{Kind: Barrier}
		if c.Intn(2) == 0 {
			e = Event{Kind: Allreduce, Bytes: 8}
		}
		p.Ranks[r] = append(p.Ranks[r][:i], append([]Event{e}, p.Ranks[r][i:]...)...)
	}
}

// errClass strips the numbers from an error message. The reference
// reports whichever mismatched channel its map iteration reaches first, so
// two validators agree on the kind of failure, not always on its channel.
func errClass(err error) string {
	return strings.Map(func(r rune) rune {
		if unicode.IsDigit(r) {
			return -1
		}
		return r
	}, err.Error())
}

// checkMatch reports where Match disagrees with the reference validator,
// or where an accepted program's slots do not pair the k-th send and the
// k-th receive of every channel.
func checkMatch(p *Program) error {
	m, err := p.Match()
	ref := referenceValidate(p)
	switch {
	case (err == nil) != (ref == nil):
		return fmt.Errorf("Match error %v, reference %v", err, ref)
	case err != nil:
		if errClass(err) != errClass(ref) {
			return fmt.Errorf("Match rejects with %q, reference with %q", err, ref)
		}
		return nil
	}
	type chanKey struct{ src, dst, tag int }
	sendSlots := map[chanKey][]int32{}
	recvSlots := map[chanKey][]int32{}
	writers := make([]int, m.Messages)
	readers := make([]int, m.Messages)
	ev := 0
	for r, evs := range p.Ranks {
		posted := map[int]int32{} // request → slot (-1 for an Isend)
		for _, e := range evs {
			s := m.Slot[ev]
			ev++
			if s < -1 || s >= int32(m.Messages) {
				return fmt.Errorf("rank %d %s: slot %d outside [-1,%d)", r, e.Kind, s, m.Messages)
			}
			switch e.Kind {
			case Send, Isend:
				if s < 0 {
					return fmt.Errorf("rank %d %s has no slot", r, e.Kind)
				}
				writers[s]++
				k := chanKey{r, e.Peer, e.Tag}
				sendSlots[k] = append(sendSlots[k], s)
				if e.Kind == Isend {
					posted[e.Request] = -1
				}
			case Recv, Irecv:
				if s < 0 {
					return fmt.Errorf("rank %d %s has no slot", r, e.Kind)
				}
				readers[s]++
				k := chanKey{e.Peer, r, e.Tag}
				recvSlots[k] = append(recvSlots[k], s)
				if e.Kind == Irecv {
					posted[e.Request] = s
				}
			case Wait:
				if want := posted[e.Request]; s != want {
					return fmt.Errorf("rank %d Wait on request %d has slot %d, its posting %d", r, e.Request, s, want)
				}
				delete(posted, e.Request)
			default:
				if s != -1 {
					return fmt.Errorf("rank %d %s has slot %d", r, e.Kind, s)
				}
			}
		}
	}
	if ev != len(m.Slot) {
		return fmt.Errorf("%d slot entries for %d events", len(m.Slot), ev)
	}
	for s := range writers {
		if writers[s] != 1 || readers[s] != 1 {
			return fmt.Errorf("slot %d written %d times and read %d times", s, writers[s], readers[s])
		}
	}
	for k, ss := range sendSlots {
		rs := recvSlots[k]
		for i := range ss {
			if ss[i] != rs[i] {
				return fmt.Errorf("channel %v: send %d has slot %d, receive %d has %d", k, i, ss[i], i, rs[i])
			}
		}
	}
	if m.Messages != p.TotalMessages() {
		return fmt.Errorf("Messages = %d, program sends %d", m.Messages, p.TotalMessages())
	}
	return nil
}

// TestMatchAgreesWithReference: on Builder programs with one to three
// random mutations, Match accepts and rejects exactly the programs the
// map-based reference does, and on accepted programs its slots pair the
// k-th send with the k-th receive of every channel.
func TestMatchAgreesWithReference(t *testing.T) {
	var rejected int
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, err := composeProgram(r)
		if err != nil {
			t.Logf("seed %d: Build: %v", seed, err)
			return false
		}
		for k := 1 + r.Intn(3); k > 0; k-- {
			mutate(p, r)
		}
		if p.Validate() != nil {
			rejected++
		}
		if err := checkMatch(p); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// The mutations must actually exercise the rejection paths.
	if rejected < 500 {
		t.Errorf("only %d of 2000 mutated programs rejected", rejected)
	}
}

// FuzzProgramValidate drives composeProgram and mutate from the fuzzer's
// bytes and checks Match against the reference validator.
func FuzzProgramValidate(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{6, 0, 5, 3, 200, 1, 4, 7, 9}, uint8(1))
	f.Add([]byte{3, 1, 3, 3, 17, 2, 4, 0, 1, 2, 3}, uint8(2))
	f.Add([]byte{5, 0, 2, 2, 99, 1, 3, 0, 5, 4}, uint8(3))
	f.Fuzz(func(t *testing.T, choices []byte, mutations uint8) {
		c := &byteChooser{b: choices}
		p, err := composeProgram(c)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		for k := mutations % 4; k > 0; k-- {
			mutate(p, c)
		}
		if err := checkMatch(p); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMatchErrorText pins the messages of the checks that do not depend on
// map order to the reference's exact text.
func TestMatchErrorText(t *testing.T) {
	progs := []*Program{
		{},
		{Ranks: [][]Event{{{Kind: Send, Peer: 0, Bytes: 8}}}},
		{Ranks: [][]Event{{{Kind: Wait, Request: 3}}, {}}},
		{Ranks: [][]Event{{
			{Kind: Isend, Peer: 1, Bytes: 8, Request: 1},
			{Kind: Irecv, Peer: 1, Bytes: 8, Request: 1},
		}, {}}},
		{Ranks: [][]Event{{{Kind: Isend, Peer: 1, Bytes: 8}}, {{Kind: Recv, Peer: 0, Bytes: 8}}}},
		{Ranks: [][]Event{{{Kind: Send, Peer: 1, Tag: 4, Bytes: 8}}, {}}},
		{Ranks: [][]Event{{}, {{Kind: Recv, Peer: 0, Tag: 4, Bytes: 8}}}},
		{Ranks: [][]Event{{{Kind: Barrier}}, {}, {{Kind: Barrier}}}},
	}
	for i, p := range progs {
		got, want := p.Validate(), referenceValidate(p)
		if got == nil || want == nil || got.Error() != want.Error() {
			t.Errorf("program %d: Validate %v, reference %v", i, got, want)
		}
	}
}

// TestBuilderRejectsInvalidEvents: an argument that would make an invalid
// event is the builder's sticky error, with Validate's text, so Build need
// not re-validate.
func TestBuilderRejectsInvalidEvents(t *testing.T) {
	for name, b := range map[string]*Builder{
		"share":     NewBuilder("x", 2).Compute(0, 1, 1.5),
		"bytes":     NewBuilder("x", 2).SendRecv(0, 1, 0, 0),
		"root":      NewBuilder("x", 2).Collective(Bcast, 5, 8),
		"zero coll": NewBuilder("x", 2).Allreduce(0),
	} {
		if _, err := b.Build(); err == nil || !strings.HasPrefix(err.Error(), "mpi: rank 0 event 0: ") {
			t.Errorf("%s: Build error %v, want the rank 0 event 0 check", name, err)
		}
	}
}
