package cluster_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/models"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// shardHelperEnv marks a re-exec of this test binary as a shard process:
// the chaos test needs real OS processes it can kill -9 mid-request, which
// no in-process fixture can emulate.
const shardHelperEnv = "DRONET_CLUSTER_SHARD_HELPER"

func TestMain(m *testing.M) {
	if id := os.Getenv(shardHelperEnv); id != "" {
		runShardHelper(id)
		return
	}
	os.Exit(m.Run())
}

// runShardHelper is the shard-process body: a single-model tiny server on
// a random loopback port, announced exactly like cmd/dronet-serve
// ("listening on HOST:PORT"), serving until the parent kills the process.
// The weight seed comes from the shard id so every helper process with the
// same id computes identical detections — the survivor-consistency oracle.
func runShardHelper(id string) {
	seed := uint64(1)
	for _, c := range id {
		seed = seed*31 + uint64(c)
	}
	net_, _, err := models.Build(models.DroNet, 64, tensor.NewRNG(seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	eng, err := engine.New(net_, engine.Config{Workers: 1, Thresh: testThresh, NMSThresh: testNMS})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	srv, err := serve.New(eng, serve.Config{MaxBatch: 2, QueueDepth: 32})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	srv.SetIdentity(id, ln.Addr().String())
	fmt.Printf("listening on %s\n", ln.Addr())
	if err := http.Serve(ln, srv); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// spawnShardProc re-execs the test binary as one shard process and returns
// its address. Cleanup kills whatever is still running.
func spawnShardProc(t *testing.T, id string) (string, *exec.Cmd) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), shardHelperEnv+"="+id)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	sc := bufio.NewScanner(stdout)
	addrCh := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "listening on ") {
				addrCh <- strings.TrimPrefix(line, "listening on ")
				return
			}
		}
		close(addrCh)
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok || addr == "" {
			t.Fatalf("shard %s exited before announcing its port", id)
		}
		return addr, cmd
	case <-time.After(30 * time.Second):
		t.Fatalf("shard %s never announced its port", id)
	}
	return "", nil
}

// TestChaosKillShardMidTraffic is the sharded tier's headline failure
// drill: three real shard processes behind the proxy, concurrent camera
// traffic, kill -9 one shard mid-flight. The proxy may answer ONLY
// 200/429/503 throughout (no hangs, no 5xx noise, no wrong bytes), cameras
// owned by surviving shards must keep getting detections identical to
// their pre-kill answers, the dead shard must be ejected from /healthz,
// and the fleet must keep completing requests — a killed shard costs
// capacity, never correctness.
func TestChaosKillShardMidTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	const shards = 3
	addrs := make([]string, shards)
	cmds := make([]*exec.Cmd, shards)
	for i := range addrs {
		addrs[i], cmds[i] = spawnShardProc(t, fmt.Sprintf("chaos%d", i))
	}
	p, err := cluster.NewProxy(cluster.ProxyConfig{
		Shards:         addrs,
		HealthInterval: 25 * time.Millisecond,
		FailThreshold:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	ts := httptest.NewServer(p)
	t.Cleanup(ts.Close)

	frames := testFrames(64, 2, 21)
	body := frameBody(t, frames[0])

	// A shard is labelled with its id only once a health probe has read it;
	// before that, responses name its address. Wait for every label.
	waitHealth(t, ts.URL, "every shard probed", func(h chaosHealth) bool {
		if h.Live != shards {
			return false
		}
		for addr, s := range h.Shards {
			if s.ShardID == addr {
				return false
			}
		}
		return true
	})

	// Map every camera to its owner and its healthy-era detections.
	const cameras = 12
	owner := make(map[string]string, cameras)
	baseline := make(map[string][]serve.DetectionJSON, cameras)
	camID := func(i int) string { return fmt.Sprintf("chaos-cam-%d", i) }
	for i := 0; i < cameras; i++ {
		code, shard, raw := postVia(t, ts.URL, "/detect?camera="+camID(i), body, nil)
		if code != http.StatusOK {
			t.Fatalf("pre-kill camera %s: status %d: %s", camID(i), code, raw)
		}
		var resp serve.DetectResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatal(err)
		}
		owner[camID(i)] = shard
		baseline[camID(i)] = resp.Detections
	}

	// Kill the shard owning camera 0 — SIGKILL, no drain, mid-traffic.
	victim := owner[camID(0)]
	victimIdx := -1
	for i := range addrs {
		if victim == fmt.Sprintf("chaos%d", i) {
			victimIdx = i
		}
	}
	if victimIdx < 0 {
		t.Fatalf("victim shard %q not among spawned shards", victim)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	statuses := make(chan int, 4096)
	var sent atomic.Int64
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				code, _, _ := postVia(t, ts.URL, "/detect?camera="+camID((c*3+i)%cameras), body, nil)
				statuses <- code
				sent.Add(1)
			}
		}(c)
	}
	for deadline := time.Now().Add(10 * time.Second); sent.Load() < 8; {
		if time.Now().After(deadline) {
			t.Fatal("no traffic through the proxy within 10s")
		}
		runtime.Gosched()
	}
	if err := cmds[victimIdx].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	// Keep the traffic going until the proxy has ejected the victim.
	waitHealth(t, ts.URL, "the killed shard ejected", func(h chaosHealth) bool {
		return h.Live == shards-1
	})
	close(stop)
	wg.Wait()
	close(statuses)
	counts := make(map[int]int)
	for code := range statuses {
		counts[code]++
		switch code {
		case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("mid-chaos status %d (want only 200/429/503); full tally %v", code, counts)
		}
	}
	if counts[http.StatusOK] == 0 {
		t.Fatalf("no request succeeded around the kill: %v", counts)
	}

	// Survivors still serve their cameras with byte-identical detections,
	// and the victim's cameras fail over to live shards with 200s.
	for i := 0; i < cameras; i++ {
		id := camID(i)
		code, shard, raw := postVia(t, ts.URL, "/detect?camera="+id, body, nil)
		if code != http.StatusOK {
			t.Fatalf("post-kill camera %s: status %d: %s", id, code, raw)
		}
		if shard == victim {
			t.Fatalf("camera %s still attributed to the killed shard", id)
		}
		if owner[id] != victim {
			if shard != owner[id] {
				t.Fatalf("camera %s moved %s -> %s though its owner survived", id, owner[id], shard)
			}
			var resp serve.DetectResponse
			if err := json.Unmarshal(raw, &resp); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(resp.Detections, baseline[id]) {
				t.Fatalf("camera %s: surviving owner %s changed its detections across the chaos", id, shard)
			}
		}
	}

	// The proxy's own health view must show exactly one ejected shard.
	waitHealth(t, ts.URL, "exactly one shard ejected", func(h chaosHealth) bool {
		return h.Status == "degraded" && h.Live == shards-1 && h.Total == shards
	})
}

// chaosHealth is the part of the proxy's /healthz the chaos drill reads.
type chaosHealth struct {
	Status string `json:"status"`
	Live   int    `json:"live_shards"`
	Total  int    `json:"total_shards"`
	Shards map[string]struct {
		ShardID string `json:"shard_id"`
	} `json:"shards"`
}

// waitHealth polls the proxy's /healthz until cond holds, failing the test
// after 10s.
func waitHealth(t *testing.T, base, what string, cond func(chaosHealth) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var h chaosHealth
		getJSON(t, base+"/healthz", &h)
		if cond(h) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("waiting for %s: %+v", what, h)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
