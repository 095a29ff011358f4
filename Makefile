# Convenience targets for the tracex repository (Go stdlib only; no
# external dependencies).

GO ?= go

.PHONY: all build vet test test-short test-race fuzz reach bench bench-cachemodel bench-collect bench-engine bench-predict bench-fleet bench-obs bench-sampling bench-sampling-smoke bench-serve bench-serve-smoke bench-server bench-store bench-smoke bench-uncert bench-uncert-smoke fleet-smoke serve experiments examples csv clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet
	$(GO) test -race ./internal/obs
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detector pass over the whole tree (the Engine's concurrency
# guarantees are exercised by the tracex and internal/memo tests).
test-race:
	$(GO) test -race ./...

# Short fuzz passes over the signature and reuse codecs, the wire strict
# decoder, the program validator, the three program routes (two compiles
# and the walk), the one-pass replay against the compiled one, the cache
# simulator, the address generators' batch paths and the fit table rules.
# CI runs this target, so a new fuzz target is added here only.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzSignatureDecode -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzReuseDecode -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzDecodeStrict -fuzztime 10s ./wire
	$(GO) test -run '^$$' -fuzz FuzzProgramValidate -fuzztime 10s ./internal/mpi
	$(GO) test -run '^$$' -fuzz FuzzCompileRoutesAgree -fuzztime 10s ./internal/mpi
	$(GO) test -run '^$$' -fuzz FuzzReplayMatchesOracle -fuzztime 10s ./internal/psins
	$(GO) test -run '^$$' -fuzz FuzzSimulatorMatchesReference -fuzztime 10s ./internal/cache
	$(GO) test -run '^$$' -fuzz FuzzNextBatchMatchesNext -fuzztime 10s ./internal/addrgen
	$(GO) test -run '^$$' -fuzz FuzzFitTableMatchesReference -fuzztime 10s ./internal/uncert

# Reachability gate (DESIGN §11): every function that no binary links must
# be on scripts/reach/keep.txt with its reason, and every name there must
# be declared and unlinked. CI runs this target.
reach:
	$(GO) run ./scripts/reach

# One iteration of every exhibit benchmark (Table/Figure regeneration).
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

# Serial vs batched vs arena-parallel signature collection, plus the hot
# loops underneath it (batched address generation, cache AccessBatch and
# scalar Access) and the MultiMAPS probe sweep that runs the same
# simulator. Allocation counts should be 0 in steady state.
bench-collect:
	$(GO) test -run '^$$' -bench 'BenchmarkCollect/' -benchmem -benchtime=3x ./internal/pebil
	$(GO) test -run '^$$' -bench 'BenchmarkAccess|BenchmarkStrideNextBatch|BenchmarkStencilNextBatch|BenchmarkRandomNextBatch' -benchmem ./internal/cache ./internal/addrgen
	$(GO) test -run '^$$' -bench 'BenchmarkProbeSweep' -benchmem ./internal/multimaps

# One iteration of every benchmark in the tree: a cheap CI smoke that
# catches benchmarks that no longer compile or crash, without timing noise.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# Analytical cache model vs exact re-simulation on an 8-geometry cache
# design sweep, plus the one-time reuse-distance recording the analytical
# sweep amortizes. Results recorded in BENCH_cachemodel.json; the >=5x
# sweep acceptance bar is enforced by TestGeometrySweepSpeedup.
bench-cachemodel:
	$(GO) test -run '^$$' -bench 'BenchmarkGeometrySweep|BenchmarkReuseCollection' -benchmem -benchtime=3x .

# Serial vs Engine-parallel CollectInputs plus the cache-hit fast path.
bench-engine:
	$(GO) test -run '^$$' -bench 'BenchmarkCollectInputs|BenchmarkCollectSignatureCached' -benchtime=3x .

# Warm predicts from cached signatures and profile: stencil3d at 1008..1038
# ranks (the perfbench predict-warm identities) and the paper's target
# scales (specfem3d@6144, uh3d@8192, stencil3d@8192), with the bytes,
# allocations and replayed events per predict. Results recorded in
# BENCH_predict.json.
bench-predict:
	$(GO) test -run '^$$' -bench 'BenchmarkPredictWarm|BenchmarkPredictPaperScale' -benchmem -count 5 .

# Observability micro-benchmarks: per-update cost of counters, gauges,
# histograms and spans, instrumented vs disabled (nil-registry) paths.
bench-obs:
	$(GO) test -run '^$$' -bench 'BenchmarkObs' -benchmem ./internal/obs

# Handler-path cost of the prediction service, coalescing on vs off
# (decode, canonical key, admission, marshal — simulation excluded).
bench-server:
	$(GO) test -run '^$$' -bench 'BenchmarkServerPredict' -benchmem ./internal/server

# Signature-store costs: codec encode/decode throughput and the
# cold-collect vs disk-warm-start ratio on the Table-1 uh3d workload.
bench-store:
	$(GO) test -run '^$$' -bench 'BenchmarkStoreEncode|BenchmarkStoreDecode' -benchmem ./internal/store
	$(GO) test -run '^$$' -bench 'BenchmarkStoreWarmStart' -benchtime=3x .

# Serving-path load harness: the standard uniform/Zipf closed-loop and
# open-loop runs, recorded into BENCH_serve.json (EXPERIMENTS.md section).
bench-serve:
	$(GO) run ./cmd/tracexload -inprocess -duration 10s -warmup 2s -workers 64 -keys 32 -label closed-uniform
	$(GO) run ./cmd/tracexload -inprocess -duration 10s -warmup 2s -workers 64 -keys 32 -zipf 1.2 -label closed-zipf
	$(GO) run ./cmd/tracexload -inprocess -duration 10s -warmup 2s -rate 800 -workers 128 -keys 32 -zipf 1.2 -label open-800rps-zipf

# CI smoke against an in-process daemon, two 5-second runs: a low-rate
# open-loop run, then a closed-loop run of 64 workers against 2 in-flight
# slots, so compute requests queue and some are shed with 429 and retried.
# Both must show real throughput and no server errors. Results stay out of
# BENCH_serve.json (-out "").
bench-serve-smoke:
	$(GO) run ./cmd/tracexload -inprocess -duration 5s -warmup 1s -rate 50 -workers 16 -keys 4 -sample-refs 2000 -out "" -label smoke -assert-min-rps 10 -assert-max-5xx 0
	$(GO) run ./cmd/tracexload -inprocess -max-inflight 2 -workers 64 -keys 4 -sample-refs 2000 -duration 5s -warmup 1s -out "" -label smoke-closed -assert-min-rps 10 -assert-max-5xx 0

# Adaptive-vs-fixed sampling comparison on the Table I workloads at their
# paper core counts, recorded into BENCH_collect.json's "sampling" section
# under the "full" label (the collector microbench results in the same
# file are preserved).
bench-sampling:
	$(GO) run ./scripts/sampling-bench -label full

# CI smoke: the adaptive default must simulate at least 3x fewer
# references than the fixed default on every Table I app while predicting
# a runtime within 1% of it; recorded under the "smoke" label.
bench-sampling-smoke:
	$(GO) run ./scripts/sampling-bench -label smoke -assert-min-ratio 3 -assert-max-drift 0.01

# Held-out interval calibration over the full app × machine matrix,
# recorded into BENCH_uncert.json under the "full" label. A calibrated
# posterior shows ~0.9 coverage on the 90% band.
bench-uncert:
	$(GO) run ./scripts/uncert-bench -label full

# CI smoke: the reduced matrix must show 90%-band coverage inside the
# [0.75, 1.0] acceptance band; the run is recorded under the "smoke" label.
bench-uncert-smoke:
	$(GO) run ./scripts/uncert-bench -label smoke -apps stencil3d,cgsolve -machines bluewaters,kraken -sample-refs 20000 -assert-min-cov 0.75 -assert-max-cov 1.0

# Distributed acceptance check: three tracexd processes on loopback must
# collect a shared identity exactly once (on its rendezvous owner), serve
# it with "peer" provenance on the other two, and degrade to a local
# collection when the owner dies. Zero 5xx allowed.
fleet-smoke:
	$(GO) run ./scripts/fleet-smoke

# Fleet wall-clock measurements (cold fill single-node vs 3-node cluster,
# warm-start replication of a wiped node), recorded into BENCH_fleet.json.
bench-fleet:
	$(GO) run ./scripts/fleet-smoke -bench -out BENCH_fleet.json

# Run the prediction daemon with development-friendly defaults.
serve:
	$(GO) run ./cmd/tracexd -addr 127.0.0.1:8321 -request-timeout 2m

# Regenerate every table, figure, ablation and extension (~1 minute).
experiments:
	$(GO) run ./cmd/experiments -run all

# Export exhibit data as CSV into ./csv for external plotting.
csv:
	$(GO) run ./cmd/experiments -run all -csv csv

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/cachedesign
	$(GO) run ./examples/clustering
	$(GO) run ./examples/energy
	$(GO) run ./examples/calibration
	$(GO) run ./examples/specfem3d
	$(GO) run ./examples/uh3d

clean:
	rm -rf csv test_output.txt bench_output.txt
