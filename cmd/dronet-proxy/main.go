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
// via dronet-serve's -shard-id; the proxy SIGTERMs them on shutdown. The
// proxy actively probes every shard's /healthz, ejects shards that fail
// consecutively and re-admits them when probes succeed again; a killed
// shard only costs capacity — its cameras fail over to ring successors and
// clients only ever see 200/429/503. GET /metrics serves the fleet
// document (per-shard labelled blocks plus a fleet rollup), GET /healthz
// the ring membership and per-shard status.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dronet-proxy: ")
	addr := flag.String("addr", ":9090", "proxy listen address (host:0 picks a free port)")
	shardsFlag := flag.String("shards", "", "comma-separated shard addresses (host:port,...) of an already-running fleet")
	spawn := flag.Int("spawn", 0, "spawn this many local dronet-serve shard processes instead of -shards")
	serveBin := flag.String("serve-bin", "bin/dronet-serve", "dronet-serve binary for -spawn")
	size := flag.Int("size", 96, "spawned shards: network input resolution")
	scale := flag.Float64("scale", 0.25, "spawned shards: filter-count scale")
	workers := flag.Int("workers", 2, "spawned shards: batch worker pool size")
	maxBatch := flag.Int("max-batch", 4, "spawned shards: maximum images per micro-batch")
	precision := flag.String("precision", "fp32", "spawned shards: inference precision (fp32 or int8)")
	modelsFlag := flag.String("models", "", "spawned shards: routed multi-model registry spec (passed through to dronet-serve -models)")
	shardMaxSessions := flag.Int("shard-max-sessions", 64, "spawned shards: per-shard cap on open /stream sessions (dronet-serve -max-sessions)")
	shardSessionIdle := flag.Duration("shard-session-idle", 60*time.Second, "spawned shards: streaming idle-eviction timeout (dronet-serve -session-idle)")
	shardSessionInflight := flag.Int("shard-session-inflight", 4, "spawned shards: per-session in-flight frame bound (dronet-serve -session-inflight)")
	vnodes := flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per shard on the consistent-hash ring")
	maxInflight := flag.Int("max-inflight", 32, "per-shard bound on concurrently forwarded requests (429 beyond it)")
	healthInterval := flag.Duration("health-interval", 500*time.Millisecond, "active /healthz probe interval")
	failThreshold := flag.Int("fail-threshold", 3, "consecutive probe failures before a shard's breaker opens")
	breakerWindow := flag.Int("breaker-window", 20, "per-shard breaker: data-plane outcome window size")
	breakerMinSamples := flag.Int("breaker-min-samples", 5, "per-shard breaker: minimum windowed samples before the error rate can trip")
	breakerErrorRate := flag.Float64("breaker-error-rate", 0.5, "per-shard breaker: windowed error rate that opens the breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "per-shard breaker: open-state cooldown before a half-open probe (0 = 2x health-interval)")
	maxStreams := flag.Int("max-streams", 256, "proxy-wide cap on relayed /stream sessions (503 + Retry-After beyond)")
	retryBudget := flag.Float64("retry-budget", 10, "failover retry token bucket capacity (exhausted retries answer 503 + Retry-After)")
	retryRefill := flag.Float64("retry-refill", 0.1, "retry tokens refilled per successful forward")
	faultsFlag := flag.String("faults", "", "arm fault injection, e.g. 'cluster.forward#HOST:PORT=error' (testing only; also via DRONET_FAULTS)")
	flag.Parse()

	if (*shardsFlag == "") == (*spawn == 0) {
		log.Fatal("exactly one of -shards or -spawn must be given")
	}
	if *faultsFlag != "" {
		if err := faults.Arm(*faultsFlag); err != nil {
			log.Fatal(err)
		}
		log.Printf("warning: fault injection armed: %s", *faultsFlag)
	}

	var fleet *shardFleet
	var addrs []string
	if *spawn > 0 {
		var err error
		fleet, err = spawnFleet(*serveBin, *spawn, shardArgs(*size, *scale, *workers, *maxBatch, *precision, *modelsFlag,
			*shardMaxSessions, *shardSessionIdle, *shardSessionInflight))
		if err != nil {
			log.Fatal(err)
		}
		defer fleet.stop()
		addrs = fleet.addrs
	} else {
		addrs = strings.Split(*shardsFlag, ",")
	}

	p, err := cluster.NewProxy(cluster.ProxyConfig{
		Shards:            addrs,
		VNodes:            *vnodes,
		MaxInflight:       *maxInflight,
		HealthInterval:    *healthInterval,
		FailThreshold:     *failThreshold,
		BreakerWindow:     *breakerWindow,
		BreakerMinSamples: *breakerMinSamples,
		BreakerErrorRate:  *breakerErrorRate,
		BreakerCooldown:   *breakerCooldown,
		RetryBudget:       *retryBudget,
		RetryRefill:       *retryRefill,
		MaxStreamSessions: *maxStreams,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer p.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("listening on %s\n", ln.Addr())
	log.Printf("fronting %d shards: %s", len(addrs), strings.Join(p.ShardAddrs(), ", "))

	httpSrv := &http.Server{Handler: p}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Fatal(err)
	case s := <-sig:
		log.Printf("%s: shutting down", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
}

// shardArgs builds the dronet-serve argument list shared by every spawned
// shard; the per-shard -shard-id and -addr are appended at spawn time.
func shardArgs(size int, scale float64, workers, maxBatch int, precision, modelsSpec string,
	maxSessions int, sessionIdle time.Duration, sessionInflight int) []string {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-size", fmt.Sprint(size),
		"-scale", fmt.Sprint(scale),
		"-workers", fmt.Sprint(workers),
		"-max-batch", fmt.Sprint(maxBatch),
		"-max-sessions", fmt.Sprint(maxSessions),
		"-session-idle", sessionIdle.String(),
		"-session-inflight", fmt.Sprint(sessionInflight),
	}
	if modelsSpec != "" {
		args = append(args, "-models", modelsSpec)
	} else {
		args = append(args, "-precision", precision)
	}
	return args
}

// shardFleet is a set of locally spawned dronet-serve processes.
type shardFleet struct {
	cmds  []*exec.Cmd
	addrs []string
}

// spawnFleet starts n shard processes labelled shard0..n-1 on free loopback
// ports and waits for each to announce its address. Any spawn failure tears
// down what already started.
func spawnFleet(bin string, n int, baseArgs []string) (*shardFleet, error) {
	f := &shardFleet{}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("shard%d", i)
		cmd := exec.Command(bin, append(append([]string{}, baseArgs...), "-shard-id", id)...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			f.stop()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			f.stop()
			return nil, fmt.Errorf("spawn %s: %w", id, err)
		}
		f.cmds = append(f.cmds, cmd)
		addr, err := awaitListenLine(stdout)
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		log.Printf("spawned %s on %s", id, addr)
		f.addrs = append(f.addrs, addr)
	}
	return f, nil
}

// awaitListenLine scans a shard's stdout for the "listening on HOST:PORT"
// announcement (30s cap) and keeps draining the pipe afterwards so the
// child never blocks on a full pipe.
func awaitListenLine(stdout io.ReadCloser) (string, error) {
	sc := bufio.NewScanner(stdout)
	addrCh := make(chan string, 1)
	go func() {
		announced := false
		for sc.Scan() {
			if line := sc.Text(); !announced && strings.HasPrefix(line, "listening on ") {
				addrCh <- strings.TrimPrefix(line, "listening on ")
				announced = true
			}
		}
		if !announced {
			close(addrCh)
		}
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok || addr == "" {
			return "", fmt.Errorf("shard exited before announcing its port")
		}
		return addr, nil
	case <-time.After(30 * time.Second):
		return "", fmt.Errorf("shard never announced its port")
	}
}

// stop SIGTERMs every spawned shard (the drain path) and reaps it, falling
// back to SIGKILL after 10s.
func (f *shardFleet) stop() {
	for _, cmd := range f.cmds {
		_ = cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, cmd := range f.cmds {
		done := make(chan struct{})
		go func(c *exec.Cmd) { _ = c.Wait(); close(done) }(cmd)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = cmd.Process.Kill()
			<-done
		}
	}
}
