// Command dronet-proxy fronts a fleet of dronet-serve shard processes with
// the consistent-hash forwarding tier (internal/cluster): requests carrying
// a camera identity (?camera= or X-Camera-ID) are pinned to a stable owner
// shard so per-camera streams batch together, keyless requests round-robin,
// and model-routing semantics (?model=, X-Model, altitude fields) pass
// through untouched for each shard's own registry to resolve.
//
// Point it at an existing fleet:
//
//	dronet-proxy -addr :9090 -shards 10.0.0.1:8080,10.0.0.2:8080
//
// or let it spawn a local fleet of shard processes itself:
//
//	dronet-proxy -addr :9090 -spawn 3 -serve-bin bin/dronet-serve \
//	    -size 96 -scale 0.25 -workers 2 -precision int8
//
// Spawned shards listen on free loopback ports and are labelled shard0..N-1
// via dronet-serve's -shard-id; the proxy SIGTERMs them on shutdown. They
// take -size, -scale, -workers, -max-batch, -precision and -models from the
// proxy's flags of the same names, and every other dronet-serve setting at
// its default. Breaker and retry tuning are cluster.ProxyConfig fields left
// at their defaults; fault injection is armed by DRONET_FAULTS, which
// spawned shards inherit.
//
// The proxy actively probes every shard's /healthz, ejects shards that fail
// consecutively and re-admits them when probes succeed again; a killed
// shard only costs capacity — its cameras fail over to ring successors and
// clients only ever see 200/429/503. GET /metrics serves the fleet
// document (per-shard labelled blocks plus a fleet rollup), GET /healthz
// the ring membership and per-shard status.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
)

var (
	addr           = flag.String("addr", ":9090", "proxy listen address (host:0 picks a free port)")
	shardsFlag     = flag.String("shards", "", "comma-separated shard addresses (host:port,...) of an already-running fleet")
	spawn          = flag.Int("spawn", 0, "spawn this many local dronet-serve shard processes instead of -shards")
	serveBin       = flag.String("serve-bin", "bin/dronet-serve", "dronet-serve binary for -spawn")
	maxInflight    = flag.Int("max-inflight", 32, "per-shard bound on concurrently forwarded requests (429 beyond it)")
	healthInterval = flag.Duration("health-interval", 500*time.Millisecond, "active /healthz probe interval")
	failThreshold  = flag.Int("fail-threshold", 3, "consecutive probe failures before a shard's breaker opens")
	maxStreams     = flag.Int("max-streams", 256, "proxy-wide cap on relayed /stream sessions (503 + Retry-After beyond)")
)

// The spawned shards' settings need no variables: shardArgs reads each of
// shardFlags back by name.
var (
	_ = flag.Int("size", 96, "spawned shards: network input resolution")
	_ = flag.Float64("scale", 0.25, "spawned shards: filter-count scale")
	_ = flag.Int("workers", 2, "spawned shards: batch worker pool size")
	_ = flag.Int("max-batch", 4, "spawned shards: maximum images per micro-batch")
	_ = flag.String("precision", "fp32", "spawned shards: inference precision (fp32 or int8)")
	_ = flag.String("models", "", "spawned shards: routed multi-model registry spec (passed through to dronet-serve -models)")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dronet-proxy: ")
	flag.Parse()
	if err := run(); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

// run serves until SIGINT or SIGTERM. It returns every error rather than
// exiting, so its deferred cleanups stop the proxy and any spawned shards
// on every path out: after a shutdown signal the listener is shut down
// first, then the proxy is closed, then the shards are stopped.
func run() error {
	if (*shardsFlag == "") == (*spawn == 0) {
		return errors.New("exactly one of -shards or -spawn must be given")
	}
	if faults.Enabled() {
		log.Print("warning: fault injection armed")
	}
	// Caught from the start: a SIGTERM that arrives as soon as the
	// "listening on" line is out must still run the defers below, or the
	// default action kills the proxy and orphans its -spawn shards.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	var addrs []string
	if *spawn > 0 {
		fleet, err := spawnFleet(*serveBin, *spawn, shardArgs(flag.CommandLine))
		if err != nil {
			return err
		}
		defer stopFleet(fleet)
		for _, p := range fleet {
			addrs = append(addrs, p.Addr)
		}
	} else {
		addrs = strings.Split(*shardsFlag, ",")
	}

	p, err := cluster.NewProxy(cluster.ProxyConfig{
		Shards:            addrs,
		MaxInflight:       *maxInflight,
		HealthInterval:    *healthInterval,
		FailThreshold:     *failThreshold,
		MaxStreamSessions: *maxStreams,
	})
	if err != nil {
		return err
	}
	defer p.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("listening on %s\n", ln.Addr())
	log.Printf("fronting %d shards: %s", len(addrs), strings.Join(p.ShardAddrs(), ", "))

	httpSrv := &http.Server{Handler: p}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		log.Printf("%s: shutting down", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	return nil
}

// shardFlags are the dronet-serve settings a spawned shard takes from the
// proxy's flags of the same name.
var shardFlags = []string{"size", "scale", "workers", "max-batch", "precision", "models"}

// shardArgs builds the dronet-serve argument list shared by every spawned
// shard: a free loopback port plus each of shardFlags as fs holds it. The
// per-shard -shard-id is appended at spawn time; dronet-serve ignores
// -precision when -models is set.
func shardArgs(fs *flag.FlagSet) []string {
	args := []string{"-addr", "127.0.0.1:0"}
	for _, name := range shardFlags {
		args = append(args, "-"+name, fs.Lookup(name).Value.String())
	}
	return args
}

// spawnFleet starts n shard processes labelled shard0..n-1 and waits for
// each to announce its address. Any spawn failure stops what already
// started.
func spawnFleet(bin string, n int, args []string) ([]*cluster.Process, error) {
	var fleet []*cluster.Process
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("shard%d", i)
		p, err := cluster.Spawn(bin, append(append([]string{}, args...), "-shard-id", id), false)
		if err != nil {
			stopFleet(fleet)
			return nil, fmt.Errorf("spawn %s: %w", id, err)
		}
		log.Printf("spawned %s on %s", id, p.Addr)
		fleet = append(fleet, p)
	}
	return fleet, nil
}

// stopFleet SIGTERMs every shard before waiting for any, so the shards
// drain in parallel, then reaps each (Drain's second SIGTERM finds it
// already draining), killing one still running after 10s.
func stopFleet(fleet []*cluster.Process) {
	for _, p := range fleet {
		_ = p.Cmd.Process.Signal(syscall.SIGTERM) // a failure resurfaces in Drain
	}
	for _, p := range fleet {
		if err := p.Drain(10 * time.Second); err != nil {
			log.Printf("shard %s: %v", p.Addr, err)
		}
	}
}
