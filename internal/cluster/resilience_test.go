package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/serve"
)

// healthzShard is the per-shard slice of the proxy's /healthz document the
// resilience tests read.
type healthzShard struct {
	BreakerState  string `json:"breaker_state"`
	OpenedTotal   uint64 `json:"breaker_opened_total"`
	HalfOpenTotal uint64 `json:"breaker_half_open_total"`
	ReclosedTotal uint64 `json:"breaker_reclosed_total"`
	ErrorsTotal   uint64 `json:"errors_total"`
}

type healthzDoc struct {
	Status            string                  `json:"status"`
	Live              int                     `json:"live_shards"`
	RetryBudgetTokens float64                 `json:"retry_budget_tokens"`
	Shards            map[string]healthzShard `json:"shards"`
}

// postFull posts a body through the proxy and returns the full response
// (the resilience tests read more headers than postVia exposes). A nil
// header map is fine.
func postFull(t *testing.T, base, path string, body []byte, header http.Header) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// findOwnedCamera posts camera ids until one is served by the wanted
// shard, returning the id.
func findOwnedCamera(t *testing.T, base, shard string) string {
	t.Helper()
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("res-%s-%d", shard, i)
		if _, got, _ := postVia(t, base, "/detect?camera="+id, []byte("{}"), nil); got == shard {
			return id
		}
	}
	t.Fatalf("no camera owned by %s in 64 tries", shard)
	return ""
}

// TestChaosFaultedShardBreakerOpensAndRecovers is the slow/flaky-shard
// chaos scenario: with both the data plane (cluster.forward) and the
// control plane (cluster.probe) of one shard faulted, every client request
// still gets a 200 via budgeted failover, the victim's breaker opens and
// STAYS open (the faulted probes fail each half-open trial), and after the
// faults are disarmed the next half-open probe re-closes the breaker and
// the victim owns its cameras again.
func TestChaosFaultedShardBreakerOpensAndRecovers(t *testing.T) {
	_, addr0 := spawnEcho(t, "victim")
	_, addr1 := spawnEcho(t, "backup")
	p, err := cluster.NewProxy(cluster.ProxyConfig{
		Shards:            []string{addr0, addr1},
		HealthInterval:    20 * time.Millisecond,
		FailThreshold:     2,
		BreakerWindow:     8,
		BreakerMinSamples: 2,
		BreakerCooldown:   100 * time.Millisecond,
		RetryBudget:       1000,
		RetryRefill:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	ts := httptest.NewServer(p)
	t.Cleanup(ts.Close)

	cam := findOwnedCamera(t, ts.URL, "victim")

	// Fault the victim on both planes, then keep the camera's traffic
	// flowing: every response must be a 200 (failover to the backup), and
	// a failed-over response reports 2 attempts.
	if err := faults.Arm(fmt.Sprintf("cluster.forward#%s=error,cluster.probe#%s=error", addr0, addr0)); err != nil {
		t.Fatal(err)
	}
	defer faults.Disarm()

	deadline := time.Now().Add(5 * time.Second)
	sawFailover := false
	opened := false
	for !opened {
		if time.Now().After(deadline) {
			t.Fatal("victim breaker never opened under injected faults")
		}
		resp, raw := postFull(t, ts.URL, "/detect?camera="+cam, []byte("{}"), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mid-fault request: status %d: %s (failover must hide the faulted shard)", resp.StatusCode, raw)
		}
		if resp.Header.Get(cluster.AttemptsHeader) == "2" {
			sawFailover = true
		}
		var health healthzDoc
		getJSON(t, ts.URL+"/healthz", &health)
		if health.Shards[addr0].BreakerState == "open" {
			opened = true
			if health.Status != "degraded" || health.Live != 1 {
				t.Fatalf("healthz with victim open: status=%s live=%d, want degraded/1", health.Status, health.Live)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !sawFailover {
		t.Fatal("no response reported X-Dronet-Attempts: 2 during the fault window")
	}

	// With the breaker open the victim is out of the walk: requests go
	// straight to the backup in one attempt.
	resp, raw := postFull(t, ts.URL, "/detect?camera="+cam, []byte("{}"), nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get(cluster.AttemptsHeader) != "1" {
		t.Fatalf("post-open request: status %d attempts %q: %s, want 200 in 1 attempt",
			resp.StatusCode, resp.Header.Get(cluster.AttemptsHeader), raw)
	}

	// Recovery: disarm, then the half-open probe after the cooldown closes
	// the breaker and the camera returns to its owner.
	faults.Disarm()
	recovered := false
	for !recovered && time.Now().Before(deadline) {
		if _, shard, _ := postVia(t, ts.URL, "/detect?camera="+cam, []byte("{}"), nil); shard == "victim" {
			recovered = true
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("victim never re-owned its camera after faults cleared")
	}
	var health healthzDoc
	getJSON(t, ts.URL+"/healthz", &health)
	br := health.Shards[addr0]
	if br.BreakerState != "closed" || br.OpenedTotal < 1 || br.HalfOpenTotal < 1 || br.ReclosedTotal < 1 {
		t.Fatalf("victim breaker after recovery: %+v, want closed with opened/half-open/reclosed >= 1", br)
	}
}

// TestChaosRetryBudgetExhaustion pins the budgeted-retry contract: with a
// 2-token non-refilling budget and a shard that fails every forward (but
// stays breaker-closed — probes are healthy and the error-rate trigger is
// configured out of reach), the first two requests succeed via budgeted
// failover and the third is an honest 503 + Retry-After instead of an
// amplifying retry.
func TestChaosRetryBudgetExhaustion(t *testing.T) {
	_, addr0 := spawnEcho(t, "victim")
	_, addr1 := spawnEcho(t, "backup")
	p, err := cluster.NewProxy(cluster.ProxyConfig{
		Shards:            []string{addr0, addr1},
		HealthInterval:    20 * time.Millisecond,
		FailThreshold:     1000, // probes are healthy; keep the streak trigger out of play
		BreakerMinSamples: 1000, // error-rate trigger unreachable (window caps below it)
		RetryBudget:       2,
		RetryRefill:       -1, // no refill: the budget is spent for good
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	ts := httptest.NewServer(p)
	t.Cleanup(ts.Close)

	cam := findOwnedCamera(t, ts.URL, "victim")
	if err := faults.Arm("cluster.forward#" + addr0 + "=error"); err != nil {
		t.Fatal(err)
	}
	defer faults.Disarm()

	for i := 0; i < 2; i++ {
		resp, raw := postFull(t, ts.URL, "/detect?camera="+cam, []byte("{}"), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("budgeted failover %d: status %d: %s", i, resp.StatusCode, raw)
		}
		if got := resp.Header.Get(cluster.AttemptsHeader); got != "2" {
			t.Fatalf("budgeted failover %d: attempts %q, want 2", i, got)
		}
	}
	resp, raw := postFull(t, ts.URL, "/detect?camera="+cam, []byte("{}"), nil)
	if resp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(raw, []byte("retry budget exhausted")) {
		t.Fatalf("exhausted budget: status %d body %s, want 503 retry budget exhausted", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("exhausted-budget 503 missing Retry-After")
	}

	var fleet cluster.FleetReport
	getJSON(t, ts.URL+"/metrics", &fleet)
	if fleet.ProxyRetryExhaustedTotal < 1 || fleet.ProxyRetryBudgetTokens != 0 {
		t.Fatalf("fleet retry counters: exhausted=%d tokens=%v, want >=1 and 0",
			fleet.ProxyRetryExhaustedTotal, fleet.ProxyRetryBudgetTokens)
	}
}

// TestProxyDeadlinePropagation pins the deadline plumbing through the
// proxy: the shard receives a decremented (never inflated) X-Dronet-Deadline,
// a deadline that fires mid-forward is a proxy 504 that does NOT penalize
// the shard's breaker, and a malformed deadline is a 400.
func TestProxyDeadlinePropagation(t *testing.T) {
	_, addr0 := spawnEcho(t, "echo0")
	p, err := cluster.NewProxy(cluster.ProxyConfig{Shards: []string{addr0}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	ts := httptest.NewServer(p)
	t.Cleanup(ts.Close)

	// Forwarded budget is decremented, not parroted.
	hdr := http.Header{serve.DeadlineHeader: []string{"5000"}}
	resp, raw := postFull(t, ts.URL, "/detect?camera=c", []byte("{}"), hdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deadlined request: status %d: %s", resp.StatusCode, raw)
	}
	var echo struct {
		DeadlineH string `json:"deadline_h"`
	}
	if err := json.Unmarshal(raw, &echo); err != nil {
		t.Fatal(err)
	}
	var ms int
	if _, err := fmt.Sscanf(echo.DeadlineH, "%d", &ms); err != nil || ms < 1 || ms > 5000 {
		t.Fatalf("shard saw deadline %q, want a positive budget <= 5000ms", echo.DeadlineH)
	}

	// ?deadline_ms= is the header's query spelling.
	resp, raw = postFull(t, ts.URL, "/detect?camera=c&deadline_ms=5000", []byte("{}"), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query-deadlined request: status %d: %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &echo); err != nil {
		t.Fatal(err)
	}
	if echo.DeadlineH == "" {
		t.Fatal("query deadline was not converted to a forwarded header")
	}

	// A deadline firing mid-forward is a 504 — and no shard penalty: the
	// injected 200ms stall happens on the proxy side of the connection.
	if err := faults.Arm("cluster.forward=slow:200ms"); err != nil {
		t.Fatal(err)
	}
	defer faults.Disarm()
	resp, raw = postFull(t, ts.URL, "/detect?camera=c", []byte("{}"), http.Header{serve.DeadlineHeader: []string{"30"}})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("mid-forward expiry: status %d: %s, want 504", resp.StatusCode, raw)
	}
	faults.Disarm()
	var health healthzDoc
	getJSON(t, ts.URL+"/healthz", &health)
	if br := health.Shards[addr0]; br.BreakerState != "closed" || br.ErrorsTotal != 0 {
		t.Fatalf("shard penalized for the client's deadline: %+v", br)
	}
	var fleet cluster.FleetReport
	getJSON(t, ts.URL+"/metrics", &fleet)
	if fleet.ProxyDeadlineExceededTotal < 1 {
		t.Fatalf("proxy_deadline_exceeded_total = %d, want >= 1", fleet.ProxyDeadlineExceededTotal)
	}

	// Malformed deadline — unparseable, or a millisecond count that would
	// overflow time.Duration into a negative budget: 400, nothing forwarded.
	for _, bad := range []string{"soon", "9223372036855"} {
		resp, _ = postFull(t, ts.URL, "/detect?camera=c", []byte("{}"), http.Header{serve.DeadlineHeader: []string{bad}})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed deadline %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestProxyCloseGoroutineHygiene pins proxy shutdown: after Close returns,
// no goroutine with a frame in internal/cluster survives (health loop and
// probe fan-outs are joined, not leaked).
func TestProxyCloseGoroutineHygiene(t *testing.T) {
	const pkg = "repro/internal/cluster."
	count := func() int {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		c := 0
		for _, st := range strings.Split(string(buf[:n]), "\n\n") {
			if strings.Contains(st, pkg) {
				c++
			}
		}
		return c
	}
	baseline := count()

	_, addr0 := spawnEcho(t, "g0")
	_, addr1 := spawnEcho(t, "g1")
	p, err := cluster.NewProxy(cluster.ProxyConfig{Shards: []string{addr0, addr1}, HealthInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p)
	for i := 0; i < 4; i++ {
		postVia(t, ts.URL, fmt.Sprintf("/detect?camera=g-%d", i), []byte("{}"), nil)
	}
	ts.Close()
	p.Close()

	deadline := time.Now().Add(3 * time.Second)
	for {
		n := count()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			m := runtime.Stack(buf, true)
			t.Fatalf("%d internal/cluster goroutines survive Close (baseline %d):\n%s", n, baseline, buf[:m])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
