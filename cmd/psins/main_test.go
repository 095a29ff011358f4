package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"tracex"
)

func TestRunReplaysApplication(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-app", "stencil3d", "-cores", "64", "-sample", "30000"}, &buf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"replayed stencil3d at 64 cores",
		"predicted runtime",
		"point-to-point messages",
		"slowest 4 ranks",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunReportsProgramVolume pins the message line to the message counts
// and payload bytes of the programs at 64 cores, for a blocking
// (specfem3d) and a non-blocking (stencil3d) halo exchange. The values were
// recorded by summing the events of the programs written out event by
// event.
func TestRunReportsProgramVolume(t *testing.T) {
	for _, c := range []struct {
		name  string
		msgs  int
		bytes uint64
	}{
		{"specfem3d", 576, 1_145_393_856},
		{"stencil3d", 576, 297_897_408},
	} {
		app, err := tracex.LoadApp(c.name)
		if err != nil {
			t.Fatal(err)
		}
		msgs, msgBytes, err := p2pVolume(app, 64)
		if err != nil {
			t.Fatal(err)
		}
		if msgs != c.msgs || msgBytes != c.bytes {
			t.Errorf("%s: p2pVolume = %d messages, %d bytes; want %d, %d", c.name, msgs, msgBytes, c.msgs, c.bytes)
		}
		var buf bytes.Buffer
		if err := run(context.Background(), []string{"-app", c.name, "-cores", "64", "-sample", "5000"}, &buf); err != nil {
			t.Fatalf("%s: run: %v", c.name, err)
		}
		want := fmt.Sprintf("  point-to-point messages: %d (%.1f MB total)\n", c.msgs, float64(c.bytes)/1e6)
		if !strings.Contains(buf.String(), want) {
			t.Errorf("%s: output missing %q:\n%s", c.name, want, buf.String())
		}
	}
}

func TestRunValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-app", "stencil3d"}, &buf); err == nil {
		t.Error("missing -cores accepted")
	}
	if err := run(context.Background(), []string{"-app", "nope", "-cores", "64"}, &buf); err == nil {
		t.Error("unknown app accepted")
	}
	if err := run(context.Background(), []string{"-app", "stencil3d", "-cores", "64", "-sig", "/no/such.json"}, &buf); err == nil {
		t.Error("missing signature accepted")
	}
}
