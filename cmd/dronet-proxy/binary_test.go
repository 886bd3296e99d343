package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/serve"
	"repro/internal/ws"
)

// The checks in this file run the built dronet-proxy in front of built
// dronet-serve shards: real processes, real signals, exit statuses. The
// proxy's routing, breakers and relay are tested in-process in
// internal/cluster.

// drainTimeout bounds how long a SIGTERMed process may take to exit.
const drainTimeout = 30 * time.Second

// shardArgv is a shard's command line: a free loopback port and the
// quarter-scale model at 64².
var shardArgv = []string{"-addr", "127.0.0.1:0", "-size", "64", "-scale", "0.25", "-workers", "2", "-max-batch", "4"}

// TestBinary builds dronet-proxy and dronet-serve and runs each fleet check
// on its own processes, side by side.
func TestBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the dronet-proxy and dronet-serve binaries")
	}
	dir := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", dir+"/", ".", "../dronet-serve").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	proxy, shard := filepath.Join(dir, "dronet-proxy"), filepath.Join(dir, "dronet-serve")
	t.Run("kill", func(t *testing.T) { t.Parallel(); testKill(t, proxy, shard) })
	t.Run("stream-resume", func(t *testing.T) { t.Parallel(); testStreamResume(t, proxy, shard) })
	t.Run("spawn", func(t *testing.T) { t.Parallel(); testSpawn(t, proxy, shard) })
	t.Run("spawn-addr-in-use", func(t *testing.T) { t.Parallel(); testSpawnAddrInUse(t, proxy, shard) })
}

// testKill: camera affinity over two labelled shards, the fleet metrics
// rollup, then kill -9 of one shard under traffic.
func testKill(t *testing.T, proxyBin, shardBin string) {
	shards := fleet(t, shardBin)
	proxy := start(t, proxyBin, "-addr", "127.0.0.1:0", "-shards", shards[0].Addr+","+shards[1].Addr,
		"-health-interval", "50ms", "-fail-threshold", "2")
	url := "http://" + proxy.Addr
	body := frame(t)

	// Both spellings of a camera reach one shard, and 16 cameras reach both.
	const cameras = 16
	owner := map[string]string{}
	hits := map[string]int{}
	for i := 0; i < cameras; i++ {
		id := fmt.Sprint("cam-", i)
		code, shard := post(t, url+"/detect?camera="+id, body, nil)
		code2, shard2 := post(t, url+"/detect", body, http.Header{"X-Camera-Id": {id}})
		if code != http.StatusOK || code2 != http.StatusOK || shard == "" || shard2 != shard {
			t.Fatalf("camera %s: query %d on %q, header %d on %q", id, code, shard, code2, shard2)
		}
		owner[id] = shard
		hits[shard]++
	}
	if hits["shard0"] == 0 || hits["shard1"] == 0 {
		t.Errorf("%d cameras reached %v, want both shard0 and shard1", cameras, hits)
	}

	var rep cluster.FleetReport
	getJSON(t, url+"/metrics", &rep)
	var sum uint64
	labels := map[string]bool{}
	for _, sm := range rep.Shards {
		labels[sm.ShardID] = true
		if sm.Metrics != nil {
			sum += sm.Metrics.Completed
		}
	}
	if rep.LiveShards != 2 || !labels["shard0"] || !labels["shard1"] || rep.Completed != sum {
		t.Errorf("fleet metrics: %d live, labels %v, rollup %d completed against a per-shard sum of %d",
			rep.LiveShards, labels, rep.Completed, sum)
	}

	// kill -9 the owner of cam-0 while three clients keep posting.
	victim := shards[0]
	if owner["cam-0"] == "shard1" {
		victim = shards[1]
	}
	var served atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var once sync.Once
	stopTraffic := func() { once.Do(func() { close(stop); wg.Wait() }) }
	defer stopTraffic() // also on t.Fatal, before the test ends
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c * 5; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch code, _ := post(t, fmt.Sprintf("%s/detect?camera=cam-%d", url, i%cameras), body, nil); code {
				case http.StatusOK:
					served.Add(1)
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				default:
					t.Errorf("traffic around the kill: status %d, want 200, 429 or 503", code)
					return
				}
			}
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); served.Load() < 10; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the proxy served no traffic before the kill")
		}
	}
	if err := victim.Cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = victim.Cmd.Wait()
	var health map[string]any
	for deadline := time.Now().Add(5 * time.Second); health["status"] != "degraded" || health["live_shards"] != 1.0; time.Sleep(25 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("proxy healthz %v %v 5s after the kill, want degraded with 1 live shard", health["status"], health["live_shards"])
		}
		getJSON(t, url+"/healthz", &health)
	}
	stopTraffic()
	for i := 0; i < cameras; i++ {
		if code, shard := post(t, fmt.Sprintf("%s/detect?camera=cam-%d", url, i), body, nil); code != http.StatusOK || shard == owner["cam-0"] {
			t.Errorf("cam-%d after the kill: status %d from %q", i, code, shard)
		}
	}
	if err := proxy.Drain(drainTimeout); err != nil {
		t.Errorf("proxy exit: %v", err)
	}
}

// testStreamResume: a relayed session lives on its camera's owner, and
// when the owner drains it resumes on the survivor with a fresh tracker.
func testStreamResume(t *testing.T, proxyBin, shardBin string) {
	shards := fleet(t, shardBin)
	proxy := start(t, proxyBin, "-addr", "127.0.0.1:0", "-shards", shards[0].Addr+","+shards[1].Addr,
		"-health-interval", "100ms")
	body := frame(t)
	conn := dial(t, proxy.Addr, "?camera=cam-s")
	owner := expect(t, conn, serve.MsgHello).ShardID
	again := dial(t, proxy.Addr, "?camera=cam-s")
	if expect(t, again, serve.MsgHello).ShardID != owner || (owner != "shard0" && owner != "shard1") {
		t.Errorf("two sessions of one camera opened on different shards, or not on shard0 or shard1 (%q)", owner)
	}
	again.Close()
	for i := 1; i <= 2; i++ {
		send(t, conn, body)
		if m := expect(t, conn, serve.MsgResult); m.Frame != i {
			t.Errorf("result %d: tracker frame %d", i, m.Frame)
		}
	}
	victim, survivor := shards[0], "shard1"
	if owner == "shard1" {
		victim, survivor = shards[1], "shard0"
	}
	if err := victim.Cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if m := expect(t, conn, serve.MsgResumed); !m.Resumed || m.ShardID != survivor {
		t.Errorf("resumed marker %+v, want resumed on %s", m, survivor)
	}
	send(t, conn, body)
	if m := expect(t, conn, serve.MsgResult); m.Frame != 1 {
		t.Errorf("first result after the resume: tracker frame %d, want 1 (a fresh tracker)", m.Frame)
	}
	if err := victim.Cmd.Wait(); err != nil {
		t.Errorf("drained owner's exit: %v", err)
	}
}

// testSpawn: -spawn starts shards with the -max-batch the proxy was given,
// and SIGTERM stops them all and exits 0.
func testSpawn(t *testing.T, proxyBin, shardBin string) {
	proxy := start(t, proxyBin, "-addr", "127.0.0.1:0", "-spawn", "2", "-serve-bin", shardBin,
		"-size", "64", "-scale", "0.25", "-workers", "1", "-max-batch", "2")
	conn := dial(t, proxy.Addr, "?camera=cam-p")
	expect(t, conn, serve.MsgHello)
	send(t, conn, frame(t))
	expect(t, conn, serve.MsgResult)
	var rep cluster.FleetReport
	getJSON(t, "http://"+proxy.Addr+"/metrics", &rep)
	if len(rep.Shards) != 2 {
		t.Fatalf("fleet metrics list %d shards, want 2", len(rep.Shards))
	}
	for addr, sm := range rep.Shards {
		if sm.Metrics == nil || sm.Metrics.MaxBatch != 2 {
			t.Errorf("spawned shard %s: metrics %v, want max_batch 2", addr, sm.Metrics)
		}
	}
	if err := proxy.Drain(drainTimeout); err != nil {
		t.Errorf("proxy exit after SIGTERM: %v", err)
	}
	for addr := range rep.Shards {
		if c, err := net.Dial("tcp", addr); err == nil {
			c.Close()
			t.Errorf("spawned shard %s still accepts connections after the proxy exited", addr)
		}
	}
}

// testSpawnAddrInUse: a proxy that cannot bind -addr after spawning its
// shards exits non-zero and takes its shards with it.
func testSpawnAddrInUse(t *testing.T, proxyBin, shardBin string) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cmd := exec.Command(proxyBin, "-addr", ln.Addr().String(), "-spawn", "1", "-serve-bin", shardBin,
		"-size", "64", "-scale", "0.25", "-workers", "1")
	// Its own process group, so the cleanup also reaches a shard the proxy
	// failed to stop.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = w
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	t.Cleanup(func() {
		_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		r.Close()
	})
	shardAddr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "spawned shard0 on "); ok {
				shardAddr <- a
			}
		}
	}()
	if err := cmd.Wait(); err == nil {
		t.Error("proxy exited 0 with its -addr in use")
	}
	var addr string
	select {
	case addr = <-shardAddr:
	case <-time.After(15 * time.Second):
		t.Fatal("proxy never logged its spawned shard")
	}
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatalf("shard %s still accepts connections 15s after the proxy exited", addr)
		}
	}
}

// fleet starts two shards labelled shard0 and shard1.
func fleet(t *testing.T, bin string) []*cluster.Process {
	return []*cluster.Process{start(t, bin, append(shardArgv, "-shard-id", "shard0")...), start(t, bin, append(shardArgv, "-shard-id", "shard1")...)}
}

// start starts bin through cluster.Spawn and drains it when the test ends.
func start(t *testing.T, bin string, args ...string) *cluster.Process {
	t.Helper()
	p, err := cluster.Spawn(bin, args, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Drain(drainTimeout) })
	return p
}

// frame is one synthetic 64² scene as a /detect or stream body.
func frame(t *testing.T) []byte {
	f, _ := pipeline.NewSimCamera(dataset.DefaultConfig(64), 1, 42).Next()
	body, err := json.Marshal(serve.StreamFrame{Width: f.Image.W, Height: f.Image.H, Pixels: f.Image.Pix})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// post sends a JSON frame and returns the status and the answering shard.
func post(t *testing.T, url string, body []byte, hdr http.Header) (int, string) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	var resp *http.Response
	if err == nil {
		req.Header = hdr
		resp, err = http.DefaultClient.Do(req)
	}
	if err != nil {
		t.Errorf("POST %s: %v", url, err)
		return 0, ""
	}
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("X-Dronet-Shard")
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err == nil {
		defer resp.Body.Close()
		err = json.NewDecoder(resp.Body).Decode(v)
	}
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// dial opens a /stream session that the test closes when it ends.
func dial(t *testing.T, addr, query string) *ws.Conn {
	t.Helper()
	c, err := ws.Dial(addr, "/stream"+query, nil, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	_ = c.SetReadDeadline(time.Now().Add(drainTimeout))
	return c
}

func send(t *testing.T, c *ws.Conn, body []byte) {
	t.Helper()
	if err := c.WriteMessage(body); err != nil {
		t.Fatal(err)
	}
}

// expect reads the next session message and checks its type.
func expect(t *testing.T, c *ws.Conn, typ string) serve.StreamMessage {
	t.Helper()
	raw, err := c.ReadMessage()
	if err != nil {
		t.Fatalf("waiting for %s: %v", typ, err)
	}
	var m serve.StreamMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Type != typ {
		t.Fatalf("got %s (%s), want %s", m.Type, m.Error, typ)
	}
	return m
}
