// Command fleet-smoke is the distributed acceptance check for tracexd's
// fleet mode: it builds the daemon, boots a 3-process cluster on loopback
// ports, and proves the cluster-wide collection contract end to end —
// the same identity predicted at every node is simulated exactly once
// (on its rendezvous owner, observed via the pebil.* counters in
// /metrics), served with provenance "peer" everywhere else, and survives
// the owner dying by degrading to local collection. Zero 5xx allowed.
//
//	go run ./scripts/fleet-smoke            # CI smoke (make fleet-smoke)
//	go run ./scripts/fleet-smoke -bench     # also measure cold fill and
//	                                        # replication into BENCH_fleet.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"tracex/internal/fleet"
)

const (
	smokeApp     = "stencil3d"
	smokeMachine = "bluewaters"
	// smokeRefs keeps each real collection in the hundreds of milliseconds.
	smokeRefs = 20_000
)

func main() {
	bench := flag.Bool("bench", false, "also measure cold fleet fill vs single node and warm-start replication")
	out := flag.String("out", "BENCH_fleet.json", "result file for -bench")
	flag.Parse()
	if err := run(*bench, *out); err != nil {
		fmt.Fprintln(os.Stderr, "fleet-smoke: FAIL:", err)
		os.Exit(1)
	}
}

func run(bench bool, out string) error {
	tmp, err := os.MkdirTemp("", "fleet-smoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(tmp, "tracexd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/tracexd")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building tracexd: %w", err)
	}

	if err := smoke(tmp, bin); err != nil {
		return err
	}
	fmt.Println("fleet-smoke: PASS")
	if bench {
		if err := runBench(tmp, bin, out); err != nil {
			return err
		}
	}
	return nil
}

// node is one tracexd process under test.
type node struct {
	url  string
	dir  string
	cmd  *exec.Cmd
	logs *bytes.Buffer
}

// reserveURLs picks n distinct loopback ports by binding and releasing
// them. A tiny race window against other processes is acceptable in a
// smoke test.
func reserveURLs(n int) ([]string, error) {
	urls := make([]string, n)
	for i := range urls {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		urls[i] = "http://" + ln.Addr().String()
		ln.Close()
	}
	return urls, nil
}

// startNode launches one daemon and waits for /readyz. peers == "" starts
// a single-node daemon.
func startNode(tmp, bin, url, peers string, extra ...string) (*node, error) {
	n := &node{
		url:  url,
		dir:  filepath.Join(tmp, strings.ReplaceAll(strings.TrimPrefix(url, "http://"), ":", "-")),
		logs: &bytes.Buffer{},
	}
	args := []string{
		"-addr", strings.TrimPrefix(url, "http://"),
		"-store-dir", n.dir,
		// Generous admission for a 1-CPU CI host: an owner fields its own
		// predict plus two delegated collections at once.
		"-max-inflight", "8", "-queue-wait", "30s",
		"-quiet",
	}
	if peers != "" {
		args = append(args, "-peers", peers, "-advertise", url)
	}
	args = append(args, extra...)
	n.cmd = exec.Command(bin, args...)
	n.cmd.Stdout, n.cmd.Stderr = n.logs, n.logs
	if err := n.cmd.Start(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return n, nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	n.stop()
	return nil, fmt.Errorf("node %s never became ready; logs:\n%s", url, n.logs)
}

func (n *node) stop() {
	if n.cmd.Process != nil {
		_ = n.cmd.Process.Kill()
		_ = n.cmd.Wait()
	}
}

// predict issues one triple predict and returns the HTTP status and the
// response's provenance ("from") field.
func predict(url string, cores int) (status int, from string, err error) {
	body := fmt.Sprintf(`{"app":%q,"cores":%d,"machine":%q,"sampling":"fixed:%d"}`,
		smokeApp, cores, smokeMachine, smokeRefs)
	resp, err := http.Post(url+"/v1/predict", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	var pr struct {
		From string `json:"from"`
	}
	raw, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(raw, &pr)
	return resp.StatusCode, pr.From, nil
}

// counter reads one counter from a node's /metrics JSON snapshot.
func counter(url, name string) (float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var snap struct {
		Metrics []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return 0, err
	}
	for _, m := range snap.Metrics {
		if m.Name == name {
			return m.Value, nil
		}
	}
	return 0, nil
}

// ownedCores returns a stencil3d core count whose identity the ring
// assigns to owner.
func ownedCores(ring *fleet.Ring, owner string) (int, error) {
	for cores := 8; cores <= 16384; cores *= 2 {
		if ring.Owner(fmt.Sprintf("%s@%d@%s", smokeApp, cores, smokeMachine)) == owner {
			return cores, nil
		}
	}
	return 0, fmt.Errorf("no stencil3d identity owned by %s", owner)
}

// smoke runs the 3-node acceptance sequence.
func smoke(tmp, bin string) error {
	urls, err := reserveURLs(3)
	if err != nil {
		return err
	}
	peers := strings.Join(urls, ",")
	nodes := make([]*node, len(urls))
	for i, url := range urls {
		// Replication off: the smoke wants deterministic counters, and all
		// stores start empty anyway.
		n, err := startNode(tmp, bin, url, peers, "-no-replicate")
		if err != nil {
			return err
		}
		defer n.stop()
		nodes[i] = n
	}

	ring := fleet.NewRing(urls)
	cores, err := ownedCores(ring, ring.Owner(fmt.Sprintf("%s@8@%s", smokeApp, smokeMachine)))
	if err != nil {
		return err
	}
	key := fmt.Sprintf("%s@%d@%s", smokeApp, cores, smokeMachine)
	owner := ring.Owner(key)
	fmt.Printf("fleet-smoke: 3 nodes up; %s owned by %s\n", key, owner)

	// The same identity against all three nodes: every answer 200, the
	// non-owners answering "peer".
	peerAnswers := 0
	for _, n := range nodes {
		status, from, err := predict(n.url, cores)
		if err != nil {
			return fmt.Errorf("predict %s on %s: %w", key, n.url, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("predict %s on %s: status %d; logs:\n%s", key, n.url, status, n.logs)
		}
		if n.url == owner {
			if from == "peer" {
				return fmt.Errorf("owner %s answered with provenance \"peer\"", n.url)
			}
		} else if from == "peer" {
			peerAnswers++
		} else {
			return fmt.Errorf("non-owner %s answered from %q, want \"peer\"", n.url, from)
		}
	}
	if peerAnswers != 2 {
		return fmt.Errorf("%d \"peer\" answers, want 2", peerAnswers)
	}

	// Exactly one collection cluster-wide: pebil.blocks counts simulated
	// basic blocks, so it is zero on every node that did not collect.
	simulated := 0
	for _, n := range nodes {
		blocks, err := counter(n.url, "pebil.blocks")
		if err != nil {
			return fmt.Errorf("reading metrics from %s: %w", n.url, err)
		}
		if blocks > 0 {
			simulated++
			if n.url != owner {
				return fmt.Errorf("non-owner %s simulated a collection (pebil.blocks=%g)", n.url, blocks)
			}
		}
	}
	if simulated != 1 {
		return fmt.Errorf("%d nodes simulated the collection, want exactly 1", simulated)
	}
	fmt.Printf("fleet-smoke: exactly-once verified (1 simulation on the owner, 2 \"peer\" answers)\n")

	// Owner down: a fresh identity owned by the dead node must still be
	// served by a survivor, collected locally.
	for i, n := range nodes {
		if n.url == owner {
			n.stop()
			nodes = append(nodes[:i], nodes[i+1:]...)
			break
		}
	}
	downCores, err := ownedCores(ring, owner)
	if err != nil {
		return err
	}
	if downCores == cores {
		for c := cores * 2; ; c *= 2 {
			if c > 16384 {
				return fmt.Errorf("no second identity owned by %s", owner)
			}
			if ring.Owner(fmt.Sprintf("%s@%d@%s", smokeApp, c, smokeMachine)) == owner {
				downCores = c
				break
			}
		}
	}
	status, from, err := predict(nodes[0].url, downCores)
	if err != nil {
		return fmt.Errorf("predict with owner down: %w", err)
	}
	if status != http.StatusOK || from != "collected" {
		return fmt.Errorf("predict with owner down: status %d from %q, want 200 \"collected\"; logs:\n%s",
			status, from, nodes[0].logs)
	}
	fmt.Printf("fleet-smoke: owner-down fallback verified (local collect on a survivor)\n")
	return nil
}

// fleetBenchFile is the BENCH_fleet.json layout.
type fleetBenchFile struct {
	Description string            `json:"description"`
	Date        string            `json:"date"`
	Environment map[string]string `json:"environment"`
	Identities  int               `json:"identities"`
	SampleRefs  int               `json:"sample_refs"`
	// SingleColdFillSeconds: one daemon collects every identity itself.
	SingleColdFillSeconds float64 `json:"single_node_cold_fill_seconds"`
	// FleetColdFillSeconds: every identity predicted at all three nodes;
	// owners collect once, the rest peer-fetch.
	FleetColdFillSeconds float64 `json:"fleet_cold_fill_seconds"`
	// ReplicationSeconds: a wiped node rejoins and pulls its owned keys.
	ReplicationSeconds float64 `json:"warm_start_replication_seconds"`
	ReplicationPulled  int     `json:"warm_start_replication_pulled"`
}

// benchCores are the identities the bench fills: 6 distinct core counts.
var benchCores = []int{8, 16, 32, 64, 128, 256}

// runBench measures cold fill (single node vs 3-node fleet) and
// warm-start replication, writing the results to out.
func runBench(tmp, bin, out string) error {
	// Single-node cold fill.
	urls, err := reserveURLs(1)
	if err != nil {
		return err
	}
	solo, err := startNode(tmp, bin, urls[0], "")
	if err != nil {
		return err
	}
	start := time.Now()
	for _, cores := range benchCores {
		if status, _, err := predict(solo.url, cores); err != nil || status != http.StatusOK {
			solo.stop()
			return fmt.Errorf("single-node fill at %d cores: status %d, %v", cores, status, err)
		}
	}
	singleFill := time.Since(start).Seconds()
	solo.stop()

	// Fleet cold fill: the same identities, each predicted at every node.
	urls, err = reserveURLs(3)
	if err != nil {
		return err
	}
	peers := strings.Join(urls, ",")
	nodes := make([]*node, len(urls))
	for i, url := range urls {
		n, err := startNode(tmp, bin, url, peers, "-no-replicate")
		if err != nil {
			return err
		}
		defer n.stop()
		nodes[i] = n
	}
	start = time.Now()
	for _, cores := range benchCores {
		for _, n := range nodes {
			if status, _, err := predict(n.url, cores); err != nil || status != http.StatusOK {
				return fmt.Errorf("fleet fill at %d cores on %s: status %d, %v", cores, n.url, status, err)
			}
		}
	}
	fleetFill := time.Since(start).Seconds()

	// Warm-start replication: wipe one node and let it rejoin. Its pull
	// target is however many bench identities the ring assigns to it.
	ring := fleet.NewRing(urls)
	victim := nodes[0]
	owned := 0
	for _, cores := range benchCores {
		if ring.Owner(fmt.Sprintf("%s@%d@%s", smokeApp, cores, smokeMachine)) == victim.url {
			owned++
		}
	}
	victim.stop()
	if err := os.RemoveAll(victim.dir); err != nil {
		return err
	}
	start = time.Now()
	reborn, err := startNode(tmp, bin, victim.url, peers)
	if err != nil {
		return err
	}
	defer reborn.stop()
	var pulled float64
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if pulled, err = counter(reborn.url, "fleet.replication.pulled"); err == nil && int(pulled) >= owned {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	repl := time.Since(start).Seconds()
	if int(pulled) < owned {
		return fmt.Errorf("replication pulled %d of %d owned identities within 30s; logs:\n%s",
			int(pulled), owned, reborn.logs)
	}

	bf := &fleetBenchFile{
		Description: "Distributed tracexd fleet: wall-clock to serve the same identity set from every node. " +
			"Single-node cold fill collects each identity once locally; fleet cold fill predicts each identity " +
			"at all three nodes (the owner collects exactly once, the others peer-fetch); warm-start replication " +
			"is a wiped node rejoining and pulling its owned keys from peers. Regenerate with `make bench-fleet`.",
		Date: time.Now().UTC().Format("2006-01-02"),
		Environment: map[string]string{
			"goos": runtime.GOOS, "goarch": runtime.GOARCH,
			"cpus": fmt.Sprintf("%d", runtime.NumCPU()),
		},
		Identities: len(benchCores), SampleRefs: smokeRefs,
		SingleColdFillSeconds: round3(singleFill),
		FleetColdFillSeconds:  round3(fleetFill),
		ReplicationSeconds:    round3(repl),
		ReplicationPulled:     int(pulled),
	}
	b, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("fleet-bench: single cold fill %.2fs, fleet cold fill %.2fs, replication %.2fs (%d keys); wrote %s\n",
		singleFill, fleetFill, repl, int(pulled), out)
	return nil
}

func round3(f float64) float64 { return float64(int(f*1000)) / 1000 }
