// Command tracexd serves the trace-extrapolation pipeline as a long-lived
// HTTP JSON service: the deployment mode for extrapolation-based
// performance predictions at scale, as opposed to the one-shot tracex CLI.
//
//	tracexd -addr :8321
//
//	curl -s localhost:8321/v1/apps
//	curl -s localhost:8321/v1/predict -d '{"app":"stencil3d","cores":64,"machine":"bluewaters"}'
//	curl -s localhost:8321/v1/study -d '{"app":"stencil3d","machine":"bluewaters","input_counts":[64,128,256],"target_cores":1024}'
//	curl -s localhost:8321/metrics
//
// The daemon layers admission control (bounded in-flight work plus a
// bounded wait queue; overflow answers 429 with Retry-After), coalescing of
// identical concurrent predict/study requests, per-request deadlines, and
// structured JSON errors over one shared tracex.Engine, whose caches make
// repeated predictions cheap. SIGINT/SIGTERM trigger a graceful shutdown:
// the listener closes, /readyz flips to not-ready, in-flight requests drain
// (bounded by -drain), and the final metrics snapshot is logged.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tracex"
	"tracex/internal/fleet"
	"tracex/internal/obs"
	"tracex/internal/server"
)

// options collects every tracexd flag, separated from main for testing.
type options struct {
	addr           string
	parallelism    int
	cacheSize      int
	maxInFlight    int
	maxQueue       int
	queueWait      time.Duration
	requestTimeout time.Duration
	retryAfter     time.Duration
	drain          time.Duration
	noCoalesce     bool
	quiet          bool
	storeDir       string
	cacheModel     string
	sampling       string
	intervals      bool
	storeReadCache int
	peers          string
	advertise      string
	shardMode      string
	peersPoll      time.Duration
	noReplicate    bool
}

// parseFlags parses args (without the program name) into options.
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("tracexd", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8321", "listen address (host:port; port 0 picks a free port)")
	fs.IntVar(&o.parallelism, "parallelism", 0, "engine worker-pool bound (0 = one worker per CPU)")
	fs.IntVar(&o.cacheSize, "cache-size", 64, "profiles/signatures retained per LRU cache (0 disables retention, <0 unbounded)")
	fs.IntVar(&o.maxInFlight, "max-inflight", 0, "concurrently executing compute requests (0 = one per CPU)")
	fs.IntVar(&o.maxQueue, "max-queue", 0, "requests allowed to wait for a slot (0 = 4x max-inflight)")
	fs.DurationVar(&o.queueWait, "queue-wait", 2*time.Second, "longest a queued request waits before 429")
	fs.DurationVar(&o.requestTimeout, "request-timeout", 0, "per-request wall-clock cap (0 = none)")
	fs.DurationVar(&o.retryAfter, "retry-after", time.Second, "Retry-After advertised on 429 responses")
	fs.DurationVar(&o.drain, "drain", 15*time.Second, "longest Shutdown waits for in-flight requests")
	fs.BoolVar(&o.noCoalesce, "no-coalesce", false, "disable coalescing of identical in-flight predict/study requests")
	fs.BoolVar(&o.quiet, "quiet", false, "suppress the per-request access log")
	fs.StringVar(&o.storeDir, "store-dir", "", "persistent signature store directory; signatures survive restarts and GET/PUT /v1/signatures/{key} are served (empty = disabled)")
	fs.StringVar(&o.cacheModel, "cache-model", "", "default cache model for collections whose request omits \"model\": \"exact\" (default) or \"analytical\"")
	fs.StringVar(&o.sampling, "sampling", "", "default sampling policy for collections whose request omits \"sampling\": \"fixed[:SAMPLE][,warm=N]\" or \"adaptive[:RELERR][,pilot=N][,min=N][,max=N][,cluster=on|off]\"")
	fs.BoolVar(&o.intervals, "intervals", false, "attach prediction intervals when a request omits the \"intervals\" knob")
	fs.IntVar(&o.storeReadCache, "store-read-cache", 0, "marshalled signature-GET bodies retained (0 = default 256, <0 disables)")
	fs.StringVar(&o.peers, "peers", "", "fleet membership: comma-separated peer base URLs, or a file with one per line (reloaded on SIGHUP and every -peers-poll); empty = single node")
	fs.StringVar(&o.advertise, "advertise", "", "this node's base URL as peers reach it (its consistent-hash ring identity); required with -peers")
	fs.StringVar(&o.shardMode, "shard-mode", "fetch", "how remote-owned keys are served: \"fetch\" (delegate + fetch from the owner) or \"redirect\" (signature GETs answer 307 to the owner)")
	fs.DurationVar(&o.peersPoll, "peers-poll", 30*time.Second, "how often a -peers file is re-read for membership changes (0 disables polling; SIGHUP always reloads)")
	fs.BoolVar(&o.noReplicate, "no-replicate", false, "skip the startup warm-start pull of owned keys from peers")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if len(fs.Args()) != 0 {
		return nil, fmt.Errorf("tracexd takes no positional arguments, got %q", fs.Args())
	}
	if o.peers != "" && o.advertise == "" {
		return nil, fmt.Errorf("-peers requires -advertise (this node's URL as peers reach it)")
	}
	return o, nil
}

// build constructs the engine, server and (with -peers) the fleet for o.
// Configuration errors (e.g. a negative -parallelism) surface here, before
// any socket opens. The engine is returned alongside the server so main can
// Close it — releasing the collection arena and the store lock — after the
// server has drained; the fleet (nil on a single node) is returned so main
// can reload membership and run the warm-start replicator.
func build(o *options, accessLog, errorLog *log.Logger) (*server.Server, *tracex.Engine, *fleet.Fleet, error) {
	// One registry shared by the engine and the fleet, so /metrics shows
	// engine.*, pebil.* and fleet.* side by side.
	reg := obs.New()
	var flt *fleet.Fleet
	if o.peers != "" {
		peers, err := fleet.LoadPeers(o.peers)
		if err != nil {
			return nil, nil, nil, err
		}
		flt, err = fleet.New(fleet.Config{
			Self:     o.advertise,
			Peers:    peers,
			Mode:     o.shardMode,
			Registry: reg,
		})
		if err != nil {
			return nil, nil, nil, err
		}
	}
	eopts := []tracex.EngineOption{tracex.WithRegistry(reg)}
	if o.parallelism != 0 {
		eopts = append(eopts, tracex.WithParallelism(o.parallelism))
	}
	eopts = append(eopts, tracex.WithCacheSize(o.cacheSize))
	if o.storeDir != "" {
		eopts = append(eopts, tracex.WithStore(o.storeDir))
	}
	if flt != nil {
		eopts = append(eopts, tracex.WithRemoteTier(flt))
	}
	eng := tracex.NewEngine(eopts...)
	if err := eng.Err(); err != nil {
		return nil, nil, nil, err
	}
	if o.quiet {
		accessLog = nil
	}
	scfg := server.Config{
		Engine:            eng,
		MaxInFlight:       o.maxInFlight,
		MaxQueue:          o.maxQueue,
		QueueWait:         o.queueWait,
		RequestTimeout:    o.requestTimeout,
		RetryAfter:        o.retryAfter,
		DisableCoalescing: o.noCoalesce,
		DefaultCacheModel: o.cacheModel,
		DefaultSampling:   o.sampling,
		DefaultIntervals:  o.intervals,
		StoreReadCache:    o.storeReadCache,
		AccessLog:         accessLog,
		ErrorLog:          errorLog,
	}
	if flt != nil {
		// Assigned conditionally: a typed nil in the interface field would
		// read as "fleet configured".
		scfg.Fleet = flt
	}
	srv, err := server.New(scfg)
	if err != nil {
		eng.Close()
		return nil, nil, nil, err
	}
	return srv, eng, flt, nil
}

// fleetLifecycle runs the fleet background work until ctx is cancelled:
// the one-shot warm-start replication pull (unless -no-replicate) and
// membership reloads, on SIGHUP and — when -peers names a file — on the
// -peers-poll ticker.
func fleetLifecycle(ctx context.Context, o *options, flt *fleet.Fleet, eng *tracex.Engine, logger *log.Logger) {
	if !o.noReplicate {
		go func() {
			pulled, err := flt.Replicate(ctx, eng)
			if err != nil {
				logger.Printf("fleet: warm-start replication pulled %d signatures, first error: %v", pulled, err)
			} else {
				logger.Printf("fleet: warm-start replication pulled %d signatures", pulled)
			}
		}()
	}
	sighup := make(chan os.Signal, 1)
	signal.Notify(sighup, syscall.SIGHUP)
	defer signal.Stop(sighup)
	var poll <-chan time.Time
	if o.peersPoll > 0 {
		t := time.NewTicker(o.peersPoll)
		defer t.Stop()
		poll = t.C
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-sighup:
		case <-poll:
		}
		peers, err := fleet.LoadPeers(o.peers)
		if err != nil {
			logger.Printf("fleet: reloading -peers %q: %v", o.peers, err)
			continue
		}
		if flt.SetPeers(peers) {
			logger.Printf("fleet: membership now %d peers, owned share %.3f", flt.Ring().Len(), flt.OwnedShare())
		}
	}
}

func main() {
	logger := log.New(os.Stderr, "tracexd: ", log.LstdFlags|log.Lmicroseconds)
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	srv, eng, flt, err := build(o, logger, logger)
	if err != nil {
		logger.Printf("configuration: %v", err)
		os.Exit(1)
	}
	addr, err := srv.Start(o.addr)
	if err != nil {
		logger.Printf("listen: %v", err)
		os.Exit(1)
	}
	logger.Printf("serving on http://%s (routes: /v1/{predict,study,extrapolate,signatures,apps,machines}, /healthz, /readyz, /metrics)", addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if flt != nil {
		logger.Printf("fleet: %d peers, self %s, shard mode %s", flt.Ring().Len(), flt.Self(), flt.Mode())
		go fleetLifecycle(ctx, o, flt, eng, logger)
	}
	<-ctx.Done()
	stop() // restore default handling: a second signal kills immediately
	logger.Printf("signal received; draining (up to %s)", o.drain)
	dctx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		logger.Printf("shutdown: %v", err)
		eng.Close()
		os.Exit(1)
	}
	// Release the engine only after the drain: in-flight requests may still
	// be collecting on its arena until Shutdown returns.
	if err := eng.Close(); err != nil {
		logger.Printf("engine close: %v", err)
		os.Exit(1)
	}
	logger.Printf("drained cleanly")
}
