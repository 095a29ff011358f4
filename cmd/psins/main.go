// Command psins replays an application's MPI event trace against a target
// machine, reporting the predicted runtime and its per-rank decomposition —
// the role of the PSiNS simulator in the PMaC framework. The compute cost of
// each event comes from convolving a supplied (or freshly collected)
// signature with the machine profile.
//
// Usage:
//
//	psins -app uh3d -cores 2048 -machine bluewaters
//	psins -app uh3d -cores 8192 -machine bluewaters -sig extrapolated.json -ranks 8
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"tracex"
	"tracex/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fatal(err)
	}
}

// run is the testable body of the command.
func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("psins", flag.ContinueOnError)
	appName := fs.String("app", "", "application name")
	cores := fs.Int("cores", 0, "core count to replay")
	machineName := fs.String("machine", "bluewaters", "target machine")
	sigPath := fs.String("sig", "", "signature path (default: collect one now)")
	topN := fs.Int("ranks", 4, "number of slowest ranks to list")
	sample := fs.Int("sample", 0, "per-block simulated references (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *appName == "" || *cores <= 0 {
		return fmt.Errorf("-app and -cores are required")
	}
	app, err := tracex.LoadApp(*appName)
	if err != nil {
		return err
	}
	cfg, err := tracex.LoadMachine(*machineName)
	if err != nil {
		return err
	}
	eng := tracex.NewEngine()
	var sig *tracex.Signature
	if *sigPath != "" {
		sig, err = trace.Load(*sigPath)
		if err != nil {
			return err
		}
		if sig.CoreCount != *cores {
			return fmt.Errorf("signature is for %d cores, replay requested %d", sig.CoreCount, *cores)
		}
	} else {
		sig, err = eng.CollectSignature(ctx, app, *cores, cfg, tracex.CollectOptions{Sampling: tracex.FixedSampling(*sample, 0)})
		if err != nil {
			return err
		}
	}
	pred, err := eng.Predict(ctx, tracex.PredictRequest{
		Signature: sig, App: app, Machine: &cfg, WithReplay: true,
	})
	if err != nil {
		return err
	}
	replay := pred.Replay
	prog, err := tracex.Program(app, *cores)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "replayed %s at %d cores on %s\n", app.Name(), *cores, cfg.Name)
	fmt.Fprintf(w, "  predicted runtime: %.2f s\n", pred.Runtime)
	fmt.Fprintf(w, "  dominant rank: compute %.2f s (mem %.2f, fp %.2f), comm %.2f s\n",
		pred.ComputeSeconds, pred.MemSeconds, pred.FPSeconds, pred.CommSeconds)
	fmt.Fprintf(w, "  point-to-point messages: %d (%.1f MB total)\n",
		prog.TotalMessages(), float64(prog.TotalBytes())/1e6)
	// Per-class load summary.
	type cls struct {
		rank int
		f    float64
	}
	var classes []cls
	seen := map[int]bool{}
	for r := 0; r < *cores && len(classes) < app.NumClasses(); r++ {
		c := app.ClassOf(r)
		if !seen[c] {
			seen[c] = true
			classes = append(classes, cls{r, app.LoadFactor(r)})
		}
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i].f > classes[j].f })
	fmt.Fprintf(w, "  load classes (%d):", len(classes))
	for _, c := range classes {
		fmt.Fprintf(w, " rank%d×%.2f", c.rank, c.f)
	}
	fmt.Fprintln(w)
	// Slowest ranks by finish time.
	type rankEnd struct {
		rank int
		end  float64
	}
	ends := make([]rankEnd, len(replay.RankEnd))
	for r, e := range replay.RankEnd {
		ends[r] = rankEnd{r, e}
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i].end > ends[j].end })
	if *topN > len(ends) {
		*topN = len(ends)
	}
	fmt.Fprintf(w, "  slowest %d ranks:\n", *topN)
	for _, re := range ends[:*topN] {
		fmt.Fprintf(w, "    rank %6d: end %.2f s (compute %.2f, comm %.2f)\n",
			re.rank, re.end, replay.ComputeTime[re.rank], replay.CommTime[re.rank])
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "psins: %v\n", err)
	os.Exit(1)
}
