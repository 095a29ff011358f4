// Command tracex drives the trace-extrapolation pipeline from the shell:
// collect application signatures at a series of core counts, extrapolate
// them to a larger count, predict runtime with the PMaC-style convolution
// and replay, and compare extrapolated traces against collected ones.
//
// Usage:
//
//	tracex trace   -app uh3d -cores 1024 -machine bluewaters -out sig1024.json
//	tracex extrap  -in sig1024.json,sig2048.json,sig4096.json -target 8192 -out sig8192.json
//	tracex predict -sig sig8192.json -app uh3d [-profile prof.json]
//	tracex measure -app uh3d -cores 8192 -machine bluewaters
//	tracex compare -extrap sig8192.json -collected real8192.json
//	tracex report  -app uh3d -out report.md
//	tracex stats   report -app uh3d -out report.md
//	tracex apps | machines
//
// All commands share one tracex.Engine, so a single invocation that needs
// the same signature or profile twice (report, notably) simulates it once.
// Interrupting the process (SIGINT/SIGTERM) cancels the running simulations
// promptly.
//
// Observability: `tracex stats <command> ...` runs any command and then
// pretty-prints the engine's metrics snapshot (cache effectiveness, stage
// timings, pipeline counters) to stderr, and the global `-metrics-addr`
// flag serves the live snapshot as JSON over HTTP for the duration of the
// run:
//
//	tracex -metrics-addr 127.0.0.1:9090 report -app specfem3d -out report.md
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tracex"
	"tracex/internal/extrap"
	"tracex/internal/machine"
	"tracex/internal/pebil"
	"tracex/internal/server"
	"tracex/internal/trace"
	"tracex/wire"
)

func main() {
	// os.Exit skips defers, so the exit code is computed in run(), where
	// the metrics endpoint's deferred drain can execute first.
	os.Exit(run())
}

func run() int {
	gfs := flag.NewFlagSet("tracex", flag.ExitOnError)
	gfs.Usage = usage
	metricsAddr := gfs.String("metrics-addr", "",
		"serve the engine's metrics snapshot as JSON on this address (host:port) while the command runs")
	storeDir := gfs.String("store-dir", "",
		"persistent signature store directory (default: $XDG_CACHE_HOME/tracex/store, else $HOME/.cache/tracex/store; \"off\" disables persistence)")
	gfs.StringVar(&collectModel, "cache-model", "",
		"cache model for signature collection: \"exact\" (default; simulates the target hierarchy) or \"analytical\" (derives hit rates from a machine-independent reuse-distance signature)")
	gfs.StringVar(&collectSampling, "sampling", "",
		"sampling policy for signature collection: \"fixed[:SAMPLE][,warm=N]\" (default) or \"adaptive[:RELERR][,pilot=N][,min=N][,max=N][,cluster=on|off]\" (per-block error bounds; see tracex.ParseSamplingPolicy)")
	_ = gfs.Parse(os.Args[1:]) // ExitOnError: Parse never returns an error
	rest := gfs.Args()
	if len(rest) == 0 {
		usage()
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	dir, err := resolveStoreDir(*storeDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracex: %s\n", err)
		return 1
	}
	var eopts []tracex.EngineOption
	if dir != "" {
		eopts = append(eopts, tracex.WithStore(dir))
	}
	eng := tracex.NewEngine(eopts...)
	// Drain the collection arena and release the store lock on the way out
	// (after the deferred metrics drain below, which registers later).
	defer eng.Close()
	if *metricsAddr != "" {
		srv, addr, err := serveMetrics(eng, *metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracex: metrics endpoint: %s\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "tracex: serving metrics on http://%s/\n", addr)
		// Drain and close the endpoint before exit, whether the command
		// finished or a SIGINT/SIGTERM cancelled it: in-flight scrapes
		// complete against the final counter values instead of being cut
		// off mid-response.
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Shutdown(sctx)
		}()
	}
	handled, err := dispatch(ctx, eng, rest[0], rest[1:])
	if !handled {
		fmt.Fprintf(os.Stderr, "tracex: unknown command %q\n", rest[0])
		usage()
		return 2
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "tracex: interrupted")
			return 130
		}
		// Library errors already carry the "tracex: " package prefix.
		fmt.Fprintf(os.Stderr, "tracex: %s\n", strings.TrimPrefix(err.Error(), "tracex: "))
		return 1
	}
	return 0
}

// Global collection options, shared by every subcommand that simulates:
// -cache-model selects how hit rates are produced, -sampling how the
// address stream is sampled.
var collectModel, collectSampling string

// collectOptions builds a subcommand's collection options from the global
// collection flags. The model and sampling-policy names are validated here
// so a typo fails before any simulation.
func collectOptions() (tracex.CollectOptions, error) {
	m, err := pebil.ParseCacheModel(collectModel)
	if err != nil {
		return tracex.CollectOptions{}, err
	}
	pol, err := tracex.ParseSamplingPolicy(collectSampling)
	if err != nil {
		return tracex.CollectOptions{}, err
	}
	opt := tracex.CollectOptions{Model: m, Sampling: pol}
	if err := opt.Validate(); err != nil {
		return tracex.CollectOptions{}, err
	}
	return opt, nil
}

// dispatch routes one subcommand to its implementation; handled reports
// whether cmd named a known command. The stats wrapper re-enters dispatch
// with the same engine so the wrapped command's activity is what it prints.
func dispatch(ctx context.Context, eng *tracex.Engine, cmd string, args []string) (handled bool, err error) {
	switch cmd {
	case "trace":
		return true, cmdTrace(ctx, eng, args)
	case "extrap":
		return true, cmdExtrap(ctx, eng, args)
	case "predict":
		return true, cmdPredict(ctx, eng, args)
	case "measure":
		return true, cmdMeasure(ctx, eng, args)
	case "compare":
		return true, cmdCompare(args)
	case "report":
		return true, cmdReport(ctx, eng, args)
	case "stats":
		return true, cmdStats(ctx, eng, args)
	case "export":
		return true, cmdExport(eng, args)
	case "import":
		return true, cmdImport(eng, args)
	case "store":
		return true, cmdStore(eng, args)
	case "apps":
		for _, a := range tracex.Apps() {
			fmt.Println(a)
		}
		return true, nil
	case "machines":
		for _, m := range tracex.Machines() {
			fmt.Println(m)
		}
		return true, nil
	case "-h", "--help", "help":
		usage()
		return true, nil
	}
	return false, nil
}

// serveMetrics starts the metrics endpoint on addr via the shared server
// lifecycle (the metrics snapshot answers "/" and "/metrics"; the full
// /v1 prediction API rides along on the same engine) and returns the
// server and its bound address (useful with port 0). Unlike the ad-hoc
// http.Serve this replaces, the returned server has a shutdown path: the
// caller drains it before exit.
func serveMetrics(eng *tracex.Engine, addr string) (*server.Server, string, error) {
	srv, err := server.New(server.Config{Engine: eng})
	if err != nil {
		return nil, "", err
	}
	bound, err := srv.Start(addr)
	if err != nil {
		return nil, "", err
	}
	return srv, bound.String(), nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: tracex [-metrics-addr host:port] [-store-dir dir|off]
              [-cache-model exact|analytical]
              [-sampling fixed:N|adaptive:RELERR] <command> [flags]

commands:
  trace    collect an application signature at one core count
  extrap   extrapolate signatures to a larger core count
  predict  predict runtime from a signature and a machine profile
  measure  run the detailed execution simulation (ground truth)
  compare  compare an extrapolated trace against a collected one
  report   run the full pipeline and write a markdown report
  stats    run any command, then print the engine's metrics snapshot
  export   copy a stored signature out of the persistent store
  import   file a signature into the persistent store
  store    persistent store maintenance: store ls | store gc
  apps     list available proxy applications
  machines list available machine configurations

signatures collected by trace/report persist in the signature store
($XDG_CACHE_HOME/tracex/store by default) and warm-start later runs.`)
}

// loadSignature reads a signature from a file (.json/.bin) or a per-rank
// signature directory.
func loadSignature(path string) (*tracex.Signature, error) {
	if trace.IsSignatureDir(path) {
		return trace.LoadDir(path)
	}
	return trace.Load(path)
}

func loadAppMachine(appName, machineName string) (*tracex.App, tracex.MachineConfig, error) {
	app, err := tracex.LoadApp(appName)
	if err != nil {
		return nil, tracex.MachineConfig{}, err
	}
	cfg, err := tracex.LoadMachine(machineName)
	if err != nil {
		return nil, tracex.MachineConfig{}, err
	}
	return app, cfg, nil
}

func cmdTrace(ctx context.Context, eng *tracex.Engine, args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	appName := fs.String("app", "", "application name (see 'tracex apps')")
	cores := fs.Int("cores", 0, "core count to trace")
	machineName := fs.String("machine", "bluewaters", "target machine")
	out := fs.String("out", "", "output signature path (.json or .bin), or a directory with -perrank")
	perRank := fs.Bool("perrank", false, "write a signature directory with one trace file per rank (the paper's layout)")
	binary := fs.Bool("binary", false, "use the compact binary encoding for per-rank files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *appName == "" || *cores <= 0 || *out == "" {
		return fmt.Errorf("trace requires -app, -cores and -out")
	}
	app, cfg, err := loadAppMachine(*appName, *machineName)
	if err != nil {
		return err
	}
	opt, err := collectOptions()
	if err != nil {
		return err
	}
	sig, err := eng.CollectSignature(ctx, app, *cores, cfg, opt)
	if err != nil {
		return err
	}
	if *perRank {
		err = trace.SaveDir(sig, *out, *binary)
	} else {
		err = trace.Save(sig, *out)
	}
	if err != nil {
		return err
	}
	dom := sig.DominantTrace()
	fmt.Printf("traced %s at %d cores on %s: %d ranks, %d blocks, dominant rank %d → %s\n",
		sig.App, sig.CoreCount, sig.Machine, len(sig.Traces), len(dom.Blocks), dom.Rank, *out)
	return nil
}

func cmdExtrap(ctx context.Context, eng *tracex.Engine, args []string) error {
	fs := flag.NewFlagSet("extrap", flag.ExitOnError)
	in := fs.String("in", "", "comma-separated input signature paths")
	target := fs.Int("target", 0, "target core count")
	out := fs.String("out", "", "output signature path")
	extended := fs.Bool("extended", false, "include power and quadratic forms")
	intervals := fs.Bool("intervals", false, "attach model-averaging uncertainty to the output signature (enables prediction intervals downstream)")
	verbose := fs.Bool("v", false, "print per-element fits")
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths := strings.Split(*in, ",")
	if *in == "" || len(paths) < 2 || *target <= 0 || *out == "" {
		return fmt.Errorf("extrap requires -in (≥2 paths), -target and -out")
	}
	var inputs []*tracex.Signature
	for _, p := range paths {
		sig, err := loadSignature(strings.TrimSpace(p))
		if err != nil {
			return err
		}
		inputs = append(inputs, sig)
	}
	opt := tracex.ExtrapOptions{Intervals: *intervals}
	if *extended {
		opt.Forms = tracex.ExtendedForms()
	}
	res, err := eng.Extrapolate(ctx, inputs, *target, opt)
	if err != nil {
		return err
	}
	if err := trace.Save(res.Signature, *out); err != nil {
		return err
	}
	note := ""
	if res.Signature.Uncertainty != nil {
		note = " with uncertainty"
	}
	fmt.Printf("extrapolated %s to %d cores (%d blocks, %d fits%s) → %s\n",
		res.Signature.App, *target, len(res.Signature.Traces[0].Blocks), len(res.Fits), note, *out)
	if len(res.SkippedBlocks) > 0 {
		fmt.Printf("skipped blocks missing from some inputs: %v\n", res.SkippedBlocks)
	}
	if *verbose {
		for _, f := range res.Fits {
			fmt.Printf("  block %-4d %-18s %-12s → %.6g (R²=%.4f)\n",
				f.BlockID, f.Element, f.Form, f.Extrapolated, f.R2)
		}
	}
	return nil
}

func cmdPredict(ctx context.Context, eng *tracex.Engine, args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	sigPath := fs.String("sig", "", "signature path")
	appName := fs.String("app", "", "application (for the communication event trace)")
	profPath := fs.String("profile", "", "machine profile path (default: run MultiMAPS on the signature's machine)")
	intervals := fs.Bool("intervals", false, "print prediction intervals (requires a signature extrapolated with 'extrap -intervals')")
	jsonOut := fs.Bool("json", false, "emit the tracexd wire JSON body instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sigPath == "" || *appName == "" {
		return fmt.Errorf("predict requires -sig and -app")
	}
	sig, err := loadSignature(*sigPath)
	if err != nil {
		return err
	}
	app, err := tracex.LoadApp(*appName)
	if err != nil {
		return err
	}
	req := tracex.PredictRequest{Signature: sig, App: app, Intervals: *intervals}
	if *profPath != "" {
		req.Profile, err = machine.LoadProfile(*profPath)
		if err != nil {
			return err
		}
	}
	pred, err := eng.Predict(ctx, req)
	if err != nil {
		return err
	}
	if *jsonOut {
		// The signature was supplied by the caller, which is exactly the
		// server's "inline" provenance.
		return printPredictionJSON(pred, "inline")
	}
	printPrediction("predicted", pred)
	return nil
}

func cmdMeasure(ctx context.Context, eng *tracex.Engine, args []string) error {
	fs := flag.NewFlagSet("measure", flag.ExitOnError)
	appName := fs.String("app", "", "application name")
	cores := fs.Int("cores", 0, "core count")
	machineName := fs.String("machine", "bluewaters", "target machine")
	jsonOut := fs.Bool("json", false, "emit the tracexd wire JSON body instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *appName == "" || *cores <= 0 {
		return fmt.Errorf("measure requires -app and -cores")
	}
	app, cfg, err := loadAppMachine(*appName, *machineName)
	if err != nil {
		return err
	}
	opt, err := collectOptions()
	if err != nil {
		return err
	}
	pred, err := eng.Measure(ctx, app, *cores, cfg, opt)
	if err != nil {
		return err
	}
	if *jsonOut {
		return printPredictionJSON(pred, "")
	}
	printPrediction("measured", pred)
	return nil
}

// printPredictionJSON writes p as the tracexd /v1/predict response body,
// through the same wire type and append encoder the server uses — the CLI
// and the daemon cannot drift apart on the JSON shape.
func printPredictionJSON(p *tracex.Prediction, from string) error {
	resp := wire.PredictionResponse(p)
	resp.From = from
	b := append(resp.AppendJSON(make([]byte, 0, 512)), '\n')
	_, err := os.Stdout.Write(b)
	return err
}

func printPrediction(kind string, p *tracex.Prediction) {
	fmt.Printf("%s runtime of %s at %d cores on %s: %.2f s\n",
		kind, p.App, p.CoreCount, p.Machine, p.Runtime)
	fmt.Printf("  dominant rank: compute %.2f s (mem %.2f s, fp %.2f s), comm %.2f s\n",
		p.ComputeSeconds, p.MemSeconds, p.FPSeconds, p.CommSeconds)
	for _, iv := range p.Intervals {
		fmt.Printf("  %2.0f%% interval: [%.2f, %.2f] s\n", 100*iv.Level, iv.Lo, iv.Hi)
	}
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	extrapPath := fs.String("extrap", "", "extrapolated signature path")
	collPath := fs.String("collected", "", "collected signature path")
	all := fs.Bool("all", false, "print every element (default: influential only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *extrapPath == "" || *collPath == "" {
		return fmt.Errorf("compare requires -extrap and -collected")
	}
	es, err := loadSignature(*extrapPath)
	if err != nil {
		return err
	}
	cs, err := loadSignature(*collPath)
	if err != nil {
		return err
	}
	errs, err := tracex.CompareTraces(&es.Traces[0], cs.DominantTrace())
	if err != nil {
		return err
	}
	shown := errs
	if !*all {
		shown = extrap.InfluentialErrors(errs)
	}
	fmt.Printf("%-24s %-18s %14s %14s %9s\n", "Block", "Element", "Extrapolated", "Collected", "AbsRelErr")
	for _, e := range shown {
		fmt.Printf("%-24s %-18s %14.6g %14.6g %8.2f%%\n",
			e.Func, e.Element, e.Extrapolated, e.Collected, 100*e.AbsRelErr)
	}
	fmt.Printf("max influential element error: %s\n",
		strconv.FormatFloat(100*extrap.MaxInfluentialError(errs), 'f', 2, 64)+"%")
	return nil
}
