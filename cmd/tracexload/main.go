// Command tracexload is tracexd's load harness: a traffic generator that
// replays a weighted mix of predict, study, signature-GET and PUT requests
// against a live daemon — or an in-process one it spins up itself — and
// records client-side latency quantiles into BENCH_serve.json.
//
// The generator speaks the same tracex/wire contract as the daemon through
// the typed tracex/client, so load-harness traffic is byte-identical to
// production traffic. Key popularity follows a uniform or Zipf-skewed
// distribution over a configurable key space; arrivals are closed-loop
// (workers issuing back-to-back) or open-loop (Poisson at a target rate
// with a bounded-outstanding shed counter); deadlines draw from fixed,
// uniform or exponential distributions.
//
// Examples:
//
//	tracexload -inprocess -duration 10s -mix predict=6,get=3,put=1 -label closed
//	tracexload -addr http://127.0.0.1:8080 -rate 500 -zipf 1.2 -label open-zipf
//	tracexload -inprocess -duration 5s -assert-min-rps 10 -assert-max-5xx 0
//	tracexload -targets http://10.0.0.1:8321,http://10.0.0.2:8321 -label fleet
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tracex"
	"tracex/internal/benchfile"
	"tracex/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracexload:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("tracexload", flag.ExitOnError)
	addr := fs.String("addr", "", "base URL of a running tracexd (e.g. http://127.0.0.1:8080)")
	targets := fs.String("targets", "", "comma-separated base URLs of several tracexd nodes; workers round-robin across them (mutually exclusive with -addr and -inprocess)")
	inprocess := fs.Bool("inprocess", false, "start a tracexd in-process and load it over loopback")
	storeDir := fs.String("store", "", "in-process store directory (default: a temp dir)")
	maxInFlight := fs.Int("max-inflight", 0, "in-process server in-flight bound (0 = GOMAXPROCS)")
	duration := fs.Duration("duration", 10*time.Second, "total run length, warmup included")
	warmup := fs.Duration("warmup", time.Second, "initial unrecorded span")
	rate := fs.Float64("rate", 0, "open-loop arrival rate in req/s (0 = closed loop)")
	workers := fs.Int("workers", 64, "closed-loop concurrency; open-loop outstanding bound")
	mixFlag := fs.String("mix", "predict=6,get=3,put=1", "operation weights (predict, get, put, study)")
	zipf := fs.Float64("zipf", 0, "key-popularity skew: Zipf s parameter > 1 (0 = uniform)")
	keys := fs.Int("keys", 32, "distinct signature identities in play")
	deadlineFlag := fs.String("deadline", "none", "per-request deadline distribution: none, fixed:200ms, uniform:50ms-500ms or exp:200ms")
	sampleRefs := fs.Int("sample-refs", 5000, "per-block simulated references of every collection, sent as a fixed sampling policy")
	seed := fs.Uint64("seed", 1, "arrival-pattern seed")
	outPath := fs.String("out", "BENCH_serve.json", "result file to create or update (\"\" = stdout only)")
	label := fs.String("label", "run", "name of this run in the result file")
	assertMinRPS := fs.Float64("assert-min-rps", 0, "fail unless measured throughput reaches this (0 = off)")
	assertMax5xx := fs.Int64("assert-max-5xx", -1, "fail if 5xx responses exceed this (-1 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mix, err := parseMix(*mixFlag)
	if err != nil {
		return err
	}
	deadlines, err := parseDeadlines(*deadlineFlag)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var targetList []string
	switch {
	case *targets != "":
		if *addr != "" || *inprocess {
			return fmt.Errorf("-targets is mutually exclusive with -addr and -inprocess")
		}
		for _, t := range strings.Split(*targets, ",") {
			if t = strings.TrimSpace(t); t != "" {
				targetList = append(targetList, t)
			}
		}
	case *inprocess:
		if *addr != "" {
			return fmt.Errorf("-addr and -inprocess are mutually exclusive")
		}
		base, shutdown, err := startInProcess(*storeDir, *maxInFlight)
		if err != nil {
			return err
		}
		defer shutdown()
		targetList = []string{base}
	case *addr != "":
		targetList = []string{*addr}
	}

	cfg := LoadConfig{
		Targets:  targetList,
		Duration: *duration, Warmup: *warmup,
		Rate: *rate, Workers: *workers,
		Mix: mix, Zipf: *zipf, Keys: *keys,
		Deadline: deadlines, SampleRefs: *sampleRefs, Seed: *seed,
	}
	rep, err := runLoad(ctx, cfg)
	if err != nil {
		return err
	}

	printSummary(out, *label, rep)
	if *outPath != "" {
		if err := writeBenchFile(*outPath, *label, rep); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s[%q]\n", *outPath, *label)
	}

	if *assertMinRPS > 0 && rep.ThroughputRPS < *assertMinRPS {
		return fmt.Errorf("throughput %.1f req/s below the asserted minimum %.1f",
			rep.ThroughputRPS, *assertMinRPS)
	}
	if *assertMax5xx >= 0 && rep.Status["5xx"] > uint64(*assertMax5xx) {
		return fmt.Errorf("%d 5xx responses exceed the asserted maximum %d",
			rep.Status["5xx"], *assertMax5xx)
	}
	return nil
}

// startInProcess boots a tracexd over a fresh engine on a loopback port and
// returns its base URL with a shutdown func.
func startInProcess(storeDir string, maxInFlight int) (string, func(), error) {
	cleanup := func() {}
	if storeDir == "" {
		dir, err := os.MkdirTemp("", "tracexload-store-")
		if err != nil {
			return "", nil, err
		}
		storeDir = dir
		cleanup = func() { os.RemoveAll(dir) }
	}
	eng := tracex.NewEngine(tracex.WithStore(storeDir))
	if err := eng.Err(); err != nil {
		cleanup()
		return "", nil, err
	}
	s, err := server.New(server.Config{Engine: eng, MaxInFlight: maxInFlight})
	if err != nil {
		cleanup()
		return "", nil, err
	}
	bound, err := s.Start("127.0.0.1:0")
	if err != nil {
		cleanup()
		return "", nil, err
	}
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		cleanup()
	}
	return "http://" + bound.String(), shutdown, nil
}

// printSummary writes the human-readable run summary.
func printSummary(out *os.File, label string, rep *Report) {
	loop := "closed"
	if rep.RateRPS > 0 {
		loop = fmt.Sprintf("open @ %.0f req/s", rep.RateRPS)
	}
	fmt.Fprintf(out, "%s: %s loop, mix %s, %d keys (zipf %g), %.1fs measured\n",
		label, loop, rep.Mix, rep.Keys, rep.Zipf, rep.MeasuredSeconds)
	fmt.Fprintf(out, "  %d requests, %.1f req/s; status %v; dropped %d\n",
		rep.Requests, rep.ThroughputRPS, rep.Status, rep.Dropped)
	if rep.RateRPS > 0 {
		fmt.Fprintf(out, "  %d arrivals late, worst by %.2fms\n", rep.Late, rep.MaxLateMs)
	}
	fmt.Fprintf(out, "  overall p50 %.2fms  p99 %.2fms  p999 %.2fms\n",
		rep.Overall.P50Ms, rep.Overall.P99Ms, rep.Overall.P999Ms)
	for _, name := range opNames {
		if op, ok := rep.Ops[string(name)]; ok {
			fmt.Fprintf(out, "  %-8s %8d reqs  p50 %8.2fms  p99 %8.2fms  p999 %8.2fms\n",
				name, op.Count, op.P50Ms, op.P99Ms, op.P999Ms)
		}
	}
}

// writeBenchFile merges one labeled report into the BENCH_serve.json at
// path, so uniform and Zipf sweeps land side by side.
func writeBenchFile(path, label string, rep *Report) error {
	return benchfile.Merge(path, "", "tracexd-serving", label, rep)
}
