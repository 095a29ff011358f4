package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tracex"
	"tracex/internal/trace"
	"tracex/wire"
)

// testEng is shared across the CLI tests so repeated collections of the
// same (app, cores, machine, options) hit the engine cache.
var testEng = tracex.NewEngine()

// bg is shorthand for the tests' background context.
var bg = context.Background()

// The CLI subcommands are plain functions from argument slices to errors,
// so the whole tool surface is testable without spawning processes.

func tmp(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join(t.TempDir(), name)
}

// collectArgs builds a trace invocation; pair it with fastSampling.
func collectArgs(out string, cores int, extra ...string) []string {
	args := []string{
		"-app", "stencil3d", "-cores", fmt.Sprint(cores),
		"-machine", "bluewaters", "-out", out,
	}
	return append(args, extra...)
}

// fastSampling makes the test's collections short, as the global flag in
// `tracex -sampling fixed:30000 <command>` does, and restores the flag
// when the test ends.
func fastSampling(t *testing.T) {
	prev := collectSampling
	collectSampling = "fixed:30000"
	t.Cleanup(func() { collectSampling = prev })
}

func TestCmdTraceAndPredictFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline flow in -short mode")
	}
	fastSampling(t)
	dir := t.TempDir()
	paths := make([]string, 0, 3)
	for _, cores := range []int{64, 128, 256} {
		p := filepath.Join(dir, fmt.Sprintf("sig%d.json", cores))
		if err := cmdTrace(bg, testEng, collectArgs(p, cores)); err != nil {
			t.Fatalf("trace %d: %v", cores, err)
		}
		paths = append(paths, p)
	}
	out := filepath.Join(dir, "sig512.json")
	err := cmdExtrap(bg, testEng, []string{
		"-in", paths[0] + "," + paths[1] + "," + paths[2],
		"-target", "512", "-out", out,
	})
	if err != nil {
		t.Fatalf("extrap: %v", err)
	}
	sig, err := trace.Load(out)
	if err != nil {
		t.Fatalf("loading extrapolated signature: %v", err)
	}
	if sig.CoreCount != 512 {
		t.Errorf("extrapolated core count %d", sig.CoreCount)
	}
	if err := cmdPredict(bg, testEng, []string{"-sig", out, "-app", "stencil3d"}); err != nil {
		t.Fatalf("predict: %v", err)
	}
	// The -intervals flags thread uncertainty from extrap through predict.
	outIv := filepath.Join(dir, "sig512iv.json")
	err = cmdExtrap(bg, testEng, []string{
		"-in", paths[0] + "," + paths[1] + "," + paths[2],
		"-target", "512", "-out", outIv, "-intervals",
	})
	if err != nil {
		t.Fatalf("extrap -intervals: %v", err)
	}
	ivSig, err := trace.Load(outIv)
	if err != nil {
		t.Fatalf("loading interval signature: %v", err)
	}
	if ivSig.Uncertainty == nil {
		t.Fatal("extrap -intervals wrote a signature without uncertainty")
	}
	if err := cmdPredict(bg, testEng, []string{"-sig", outIv, "-app", "stencil3d", "-intervals"}); err != nil {
		t.Fatalf("predict -intervals: %v", err)
	}
	// Compare against a collected 512-core signature.
	real512 := filepath.Join(dir, "real512.json")
	if err := cmdTrace(bg, testEng, collectArgs(real512, 512)); err != nil {
		t.Fatalf("trace 512: %v", err)
	}
	if err := cmdCompare([]string{"-extrap", out, "-collected", real512}); err != nil {
		t.Fatalf("compare: %v", err)
	}
}

func TestCmdTracePerRankDirectory(t *testing.T) {
	fastSampling(t)
	dir := tmp(t, "sigdir")
	if err := cmdTrace(bg, testEng, collectArgs(dir, 64, "-perrank", "-binary")); err != nil {
		t.Fatalf("trace -perrank: %v", err)
	}
	if !trace.IsSignatureDir(dir) {
		t.Fatal("output is not a signature directory")
	}
	sig, err := loadSignature(dir)
	if err != nil {
		t.Fatalf("loadSignature(dir): %v", err)
	}
	if sig.CoreCount != 64 {
		t.Errorf("core count %d", sig.CoreCount)
	}
}

func TestCmdValidation(t *testing.T) {
	if err := cmdTrace(bg, testEng, []string{"-app", "stencil3d"}); err == nil {
		t.Error("trace without -cores/-out accepted")
	}
	if err := cmdTrace(bg, testEng, collectArgs(tmp(t, "x.json"), 64, "-app", "nope")); err == nil {
		t.Error("unknown app accepted")
	}
	if err := cmdExtrap(bg, testEng, []string{"-in", "only-one.json", "-target", "512", "-out", "x"}); err == nil {
		t.Error("single input accepted")
	}
	if err := cmdExtrap(bg, testEng, []string{"-in", "a.json,b.json", "-target", "512", "-out", tmp(t, "o.json")}); err == nil {
		t.Error("missing input files accepted")
	}
	if err := cmdPredict(bg, testEng, []string{"-app", "uh3d"}); err == nil {
		t.Error("predict without -sig accepted")
	}
	if err := cmdMeasure(bg, testEng, []string{"-app", "uh3d"}); err == nil {
		t.Error("measure without -cores accepted")
	}
	if err := cmdCompare([]string{"-extrap", "x"}); err == nil {
		t.Error("compare without -collected accepted")
	}
	if err := cmdReport(bg, testEng, []string{}); err == nil {
		t.Error("report without -app accepted")
	}
	if err := cmdReport(bg, testEng, []string{"-app", "stencil3d", "-counts", "abc"}); err == nil {
		t.Error("malformed counts accepted")
	}
}

func TestCmdMeasureSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("measure in -short mode")
	}
	if err := cmdMeasure(bg, testEng, []string{"-app", "stencil3d", "-cores", "64"}); err != nil {
		t.Fatalf("measure: %v", err)
	}
}

func TestCmdReportToFile(t *testing.T) {
	if testing.Short() {
		t.Skip("report in -short mode")
	}
	fastSampling(t)
	out := tmp(t, "report.md")
	err := cmdReport(bg, testEng, []string{
		"-app", "stencil3d", "-counts", "64,128,256", "-target", "512",
		"-out", out,
	})
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# Trace extrapolation report",
		"## Runtime prediction",
		"## Influential-element audit",
		"## Energy",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("report missing section %q", want)
		}
	}
}

// TestCmdReportJSON checks -json emits the tracexd /v1/study wire body:
// scripted callers get the same shape from the CLI and the daemon.
func TestCmdReportJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("report in -short mode")
	}
	fastSampling(t)
	out := tmp(t, "study.json")
	err := cmdReport(bg, testEng, []string{
		"-app", "stencil3d", "-counts", "64,128,256", "-target", "512",
		"-out", out, "-json",
	})
	if err != nil {
		t.Fatalf("report -json: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var sr wire.StudyResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatalf("decoding %s: %v", data, err)
	}
	if sr.App != "stencil3d" || sr.Machine != "bluewaters" || len(sr.Rows) == 0 {
		t.Errorf("study body incomplete: %+v", sr)
	}
	for _, row := range sr.Rows {
		if row.TargetCores <= 0 || row.PredictedSeconds <= 0 {
			t.Errorf("bad study row: %+v", row)
		}
	}
}

// TestCmdStatsWrapper runs a command under the stats wrapper and checks the
// printed snapshot carries the engine and pipeline metrics — including the
// reuse-profile tier counters.
func TestCmdStatsWrapper(t *testing.T) {
	fastSampling(t)
	eng := tracex.NewEngine()
	out := tmp(t, "sig.json")
	if err := cmdStats(bg, eng, append([]string{"trace"}, collectArgs(out, 64)...)); err != nil {
		t.Fatalf("stats trace: %v", err)
	}
	// A second collection under the analytical model exercises the
	// reuse-profile tier, so the reuse counters are provably nonzero.
	prevModel := collectModel
	collectModel = "analytical"
	if err := cmdTrace(bg, eng, collectArgs(tmp(t, "sig-analytical.json"), 64)); err != nil {
		collectModel = prevModel
		t.Fatalf("analytical trace: %v", err)
	}
	collectModel = prevModel
	var buf strings.Builder
	printStats(&buf, eng)
	text := buf.String()
	for _, want := range []string{
		"== engine stats ==",
		"2 collected",
		"engine.collect",
		"pebil.collect",
		"pebil.blocks",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("stats output missing %q:\n%s", want, text)
		}
	}
	st := eng.Stats()
	if st.ReuseCollections == 0 {
		t.Error("analytical collection recorded no reuse profiles")
	}
	reuseLine := fmt.Sprintf("reuse:      %d profiles recorded, %d memo hits", st.ReuseCollections, st.ReuseHits)
	if !strings.Contains(text, reuseLine) {
		t.Errorf("stats output missing reuse line %q:\n%s", reuseLine, text)
	}

	// Validation.
	if err := cmdStats(bg, eng, nil); err == nil {
		t.Error("stats without a wrapped command accepted")
	}
	if err := cmdStats(bg, eng, []string{"stats", "apps"}); err == nil {
		t.Error("stats wrapping itself accepted")
	}
	if err := cmdStats(bg, eng, []string{"bogus"}); err == nil {
		t.Error("stats wrapping an unknown command accepted")
	}
}

// TestServeMetrics hits the -metrics-addr HTTP endpoint and checks it
// serves the engine's JSON snapshot and then drains cleanly.
func TestServeMetrics(t *testing.T) {
	fastSampling(t)
	eng := tracex.NewEngine()
	if err := cmdTrace(bg, eng, collectArgs(tmp(t, "sig.json"), 64)); err != nil {
		t.Fatal(err)
	}
	srv, addr, err := serveMetrics(eng, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Shutdown(bg); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	resp, err := http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Metrics []struct {
			Name string `json:"name"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("endpoint served invalid JSON: %v\n%s", err, body)
	}
	names := map[string]bool{}
	for _, m := range snap.Metrics {
		names[m.Name] = true
	}
	for _, want := range []string{"pebil.blocks", "engine.pool.capacity"} {
		if !names[want] {
			t.Errorf("endpoint snapshot missing metric %q", want)
		}
	}
}

func TestReportScaleDefaults(t *testing.T) {
	counts, target, err := reportScale("uh3d", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if target != 8192 || len(counts) != 3 {
		t.Errorf("uh3d defaults: %v → %d", counts, target)
	}
	if _, _, err := reportScale("mystery", "", 0); err == nil {
		t.Error("unknown app without -counts accepted")
	}
	counts, target, err = reportScale("mystery", "10,20", 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 2 || target != 40 {
		t.Errorf("explicit scale: %v → %d", counts, target)
	}
}
