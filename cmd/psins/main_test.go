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

// TestRunReportsProgramVolume pins the message line, which the command
// takes from the compiled program, to the materialized program's counts,
// for a blocking (specfem3d) and a non-blocking (stencil3d) halo exchange.
func TestRunReportsProgramVolume(t *testing.T) {
	for _, name := range []string{"specfem3d", "stencil3d"} {
		app, err := tracex.LoadApp(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := app.Program(64)
		if err != nil {
			t.Fatal(err)
		}
		msgs, msgBytes, err := p2pVolume(app, 64)
		if err != nil {
			t.Fatal(err)
		}
		if msgs != prog.TotalMessages() || msgBytes != prog.TotalBytes() {
			t.Errorf("%s: p2pVolume = %d messages, %d bytes; program has %d, %d",
				name, msgs, msgBytes, prog.TotalMessages(), prog.TotalBytes())
		}
		var buf bytes.Buffer
		if err := run(context.Background(), []string{"-app", name, "-cores", "64", "-sample", "5000"}, &buf); err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		want := fmt.Sprintf("  point-to-point messages: %d (%.1f MB total)\n",
			prog.TotalMessages(), float64(prog.TotalBytes())/1e6)
		if !strings.Contains(buf.String(), want) {
			t.Errorf("%s: output missing %q:\n%s", name, want, buf.String())
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
