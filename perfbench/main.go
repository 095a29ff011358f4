// Command perfbench is tracex's end-to-end and per-layer benchmark. It runs
// one closed-loop workload against the public surfaces — the tracex.Engine
// library and an in-process tracexd driven through tracex/client — checks
// every operation's output, and prints one JSON result line.
//
//	perfbench --workload predict-warm --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced window (see README.md).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

// setupRepeats is how many times a run builds its workload's set-up; the
// last one serves the timed window. A set-up is a fixed amount of CPU
// work whose time follows the host's speed at that moment, so setup_s is
// the median of the repeats: one set-up slowed by a neighbour does not
// move it.
const setupRepeats = 3

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	seed := fs.Int64("seed", 1, "seed of the workload's op sequence")
	seconds := fs.Float64("seconds", 20, "length of the timed window in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced mode and reports per-layer metrics")
	outDir := fs.String("out", ".bench_build/perfbench", "directory for temporary stores and span files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %v)", *name, workloadNames())
	}
	if *seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if *traced != 0 && *traced != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *traced == 1, outDir: *outDir}
	res, err := runWorkload(ctx, *name, wl, cfg, stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}
