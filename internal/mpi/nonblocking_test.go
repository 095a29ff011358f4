package mpi

import "testing"

func TestNonblockingEventValidation(t *testing.T) {
	cases := []struct {
		name string
		e    Event
		ok   bool
	}{
		{"good isend", Event{Kind: Isend, Peer: 1, Bytes: 8, Request: 0}, true},
		{"good irecv", Event{Kind: Irecv, Peer: 2, Bytes: 8, Request: 3}, true},
		{"isend to self", Event{Kind: Isend, Peer: 0, Bytes: 8}, false},
		{"zero-byte irecv", Event{Kind: Irecv, Peer: 1}, false},
		{"good wait", Event{Kind: Wait, Request: 1}, true},
	}
	for _, c := range cases {
		err := c.e.Validate(0, 4)
		if c.ok && err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestProgramValidateNonblockingPairing(t *testing.T) {
	// Wait without a posted request.
	p := &Program{App: "x", Ranks: [][]Event{
		{{Kind: Wait, Request: 0}},
		{},
	}}
	if err := p.Validate(); err == nil {
		t.Error("wait on unposted request accepted")
	}
	// Unwaited request at program end.
	p = &Program{App: "x", Ranks: [][]Event{
		{{Kind: Isend, Peer: 1, Tag: 0, Bytes: 8, Request: 0}},
		{{Kind: Recv, Peer: 0, Tag: 0, Bytes: 8}},
	}}
	if err := p.Validate(); err == nil {
		t.Error("unwaited isend accepted")
	}
	// Request id reused while outstanding.
	p = &Program{App: "x", Ranks: [][]Event{
		{
			{Kind: Isend, Peer: 1, Tag: 0, Bytes: 8, Request: 0},
			{Kind: Isend, Peer: 1, Tag: 1, Bytes: 8, Request: 0},
			{Kind: Wait, Request: 0},
		},
		{
			{Kind: Recv, Peer: 0, Tag: 0, Bytes: 8},
			{Kind: Recv, Peer: 0, Tag: 1, Bytes: 8},
		},
	}}
	if err := p.Validate(); err == nil {
		t.Error("reused outstanding request accepted")
	}
	// Request id legally reused after its Wait.
	p = &Program{App: "x", Ranks: [][]Event{
		{
			{Kind: Isend, Peer: 1, Tag: 0, Bytes: 8, Request: 0},
			{Kind: Wait, Request: 0},
			{Kind: Isend, Peer: 1, Tag: 1, Bytes: 8, Request: 0},
			{Kind: Wait, Request: 0},
		},
		{
			{Kind: Recv, Peer: 0, Tag: 0, Bytes: 8},
			{Kind: Recv, Peer: 0, Tag: 1, Bytes: 8},
		},
	}}
	if err := p.Validate(); err != nil {
		t.Errorf("legal request reuse rejected: %v", err)
	}
	// Isend/Irecv participate in the send/recv multiset balance.
	p = &Program{App: "x", Ranks: [][]Event{
		{
			{Kind: Isend, Peer: 1, Tag: 0, Bytes: 8, Request: 0},
			{Kind: Wait, Request: 0},
		},
		{
			{Kind: Irecv, Peer: 0, Tag: 0, Bytes: 8, Request: 0},
			{Kind: Wait, Request: 0},
		},
	}}
	if err := p.Validate(); err != nil {
		t.Errorf("balanced nonblocking pair rejected: %v", err)
	}
	if m, err := p.Compile(); err != nil || m.Messages != 1 || m.PayloadBytes() != 8 {
		t.Errorf("nonblocking message not counted: %+v, %v", m, err)
	}
}

func TestNonblockingHaloTagsMatch(t *testing.T) {
	// The reference's nonblocking halo Irecv tags must pair with the
	// neighbors' Isend tags: Validate's multiset check proves it for a 3D
	// grid where every direction occurs.
	g, err := NewGrid3D(64)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := appendProgram("nb", 64, func(b *Builder) { b.HaloExchange3DNonblocking(g, 1024, 500) })
	if err != nil {
		t.Fatalf("appendProgram: %v", err)
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every rank's waits equal its posts.
	for r, evs := range prog.Ranks {
		posts, waits := 0, 0
		for _, e := range evs {
			switch e.Kind {
			case Isend, Irecv:
				posts++
			case Wait:
				waits++
			}
		}
		if posts != waits {
			t.Fatalf("rank %d: %d posts vs %d waits", r, posts, waits)
		}
	}
}

func TestNonblockingKindNames(t *testing.T) {
	if Isend.String() != "isend" || Irecv.String() != "irecv" || Wait.String() != "wait" {
		t.Error("nonblocking kind names wrong")
	}
	for _, k := range []EventKind{Isend, Irecv, Wait} {
		if k.IsCollective() {
			t.Errorf("%s misclassified as collective", k)
		}
	}
}
