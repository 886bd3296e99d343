package serve_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/imgproc"
	"repro/internal/models"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/ws"
)

// postDeadline posts one frame with an X-Dronet-Deadline budget (0 = no
// deadline) and returns the status, decoded response and raw body.
func postDeadline(t *testing.T, ts *httptest.Server, img *imgproc.Image, budgetMs int) (int, serve.DetectResponse, []byte) {
	t.Helper()
	body, err := json.Marshal(serve.DetectRequest{Width: img.W, Height: img.H, Pixels: img.Pix})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/detect", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if budgetMs > 0 {
		req.Header.Set(serve.DeadlineHeader, fmt.Sprint(budgetMs))
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
	var dr serve.DetectResponse
	_ = json.Unmarshal(raw, &dr)
	return resp.StatusCode, dr, raw
}

// scrapeStats fetches the server's /metrics document.
func scrapeStats(t *testing.T, ts *httptest.Server) serve.MetricsReport {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m serve.MetricsReport
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// executedImages sums k·count over the batch histogram: the number of
// images that actually went through a kernel.
func executedImages(s serve.Stats) uint64 {
	var n uint64
	for k, v := range s.BatchHist {
		n += uint64(k) * uint64(v)
	}
	return n
}

// TestDeadlineStormNeverReachesKernel is the deadline chaos scenario: with
// an injected 30ms kernel slowdown and a warmed service-time estimate, a
// storm of requests carrying 10ms budgets must produce ZERO 200s past
// their deadlines — every storm request is answered 504 — and, pinned by
// the kernel-accounting identity executed == completed + failed, none of
// the dropped requests ever reached a GEMM: only the warm-up requests
// appear in the batch histogram.
func TestDeadlineStormNeverReachesKernel(t *testing.T) {
	if err := faults.Arm("engine.execute=slow:30ms"); err != nil {
		t.Fatal(err)
	}
	defer faults.Disarm()

	srv := newServer(t, buildNet(t), 1, serve.Config{MaxBatch: 4, QueueDepth: 64})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	frames := testFrames(2)

	// Warm-up: deadline-free requests populate the engine's observed
	// service time (≥ the injected 30ms), arming the batcher's
	// drop-doomed-work estimate.
	const warm = 3
	for i := 0; i < warm; i++ {
		code, _, raw := postDeadline(t, ts, frames[i%len(frames)], 0)
		if code != http.StatusOK {
			t.Fatalf("warm-up %d: status %d: %s", i, code, raw)
		}
	}

	// Storm: 12 concurrent requests whose 10ms budgets cannot cover the
	// ~30ms service time. Each is admitted (not expired on arrival) and
	// must be dropped at batch assembly with a 504.
	const storm = 12
	var wg sync.WaitGroup
	codes := make([]int, storm)
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _, _ = postDeadline(t, ts, frames[i%len(frames)], 10)
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusGatewayTimeout {
			t.Fatalf("storm request %d: status %d, want 504 (no response past deadline)", i, code)
		}
	}

	m := scrapeStats(t, ts)
	if m.DeadlineExceededTotal != storm {
		t.Errorf("deadline_exceeded_total = %d, want %d", m.DeadlineExceededTotal, storm)
	}
	if m.Completed != warm || m.Failed != 0 {
		t.Errorf("completed/failed = %d/%d, want %d/0", m.Completed, m.Failed, warm)
	}
	// The kernel-accounting identity: every image in the batch histogram is
	// accounted as completed or failed, so a dropped-expired request that
	// had reached a kernel would break the equality.
	if exec := executedImages(m.Stats); exec != m.Completed+m.Failed {
		t.Errorf("executed images %d != completed+failed %d: expired work reached a kernel", exec, m.Completed+m.Failed)
	}

	// A generous budget still flows end to end while the slow fault is
	// armed: deadlines shed doomed work only.
	if code, _, raw := postDeadline(t, ts, frames[0], 5000); code != http.StatusOK {
		t.Fatalf("ample-budget request: status %d: %s", code, raw)
	}
}

// TestExpiredOnArrival504 pins the satellite contract: a request whose
// deadline has already passed when it reaches admission is classified 504
// deadline_exceeded — not 429 — and never enters the queue.
func TestExpiredOnArrival504(t *testing.T) {
	// The admission-path slow fault delays the request 30ms before the
	// expiry check, so a 10ms budget is deterministically dead on arrival.
	if err := faults.Arm("serve.queue=slow:30ms"); err != nil {
		t.Fatal(err)
	}
	defer faults.Disarm()

	srv := newServer(t, buildNet(t), 1, serve.Config{MaxBatch: 2, QueueDepth: 8})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	frames := testFrames(1)

	code, _, raw := postDeadline(t, ts, frames[0], 10)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("expired-on-arrival: status %d (%s), want 504", code, raw)
	}
	m := scrapeStats(t, ts)
	if m.DeadlineExceededTotal != 1 || m.Rejected != 0 {
		t.Errorf("deadline_exceeded/rejected = %d/%d, want 1/0 (504 must not be a 429)", m.DeadlineExceededTotal, m.Rejected)
	}
	if exec := executedImages(m.Stats); exec != 0 {
		t.Errorf("executed images = %d, want 0", exec)
	}
}

// TestDeadlineOverBudget400 pins the budget bound: a millisecond count
// that would overflow time.Duration (9223372036855 ms wraps negative) or
// merely exceeds the one-day cap is a malformed request — 400 on every
// surface that parses a deadline, never the instant 504 a wrapped budget
// used to earn — while the largest in-range budget is still served.
func TestDeadlineOverBudget400(t *testing.T) {
	srv := newServer(t, buildNet(t), 1, serve.Config{MaxBatch: 2, QueueDepth: 8})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	frame := testFrames(1)[0]
	var png bytes.Buffer
	if err := encodePNG(&png, frame); err != nil {
		t.Fatal(err)
	}
	jsonBody, err := json.Marshal(serve.DetectRequest{Width: frame.W, Height: frame.H, Pixels: frame.Pix})
	if err != nil {
		t.Fatal(err)
	}

	const day = 24 * 60 * 60 * 1000
	cases := []struct {
		name, path, header string
		want               int
	}{
		{"raw header wraps negative", "/detect/raw", "9223372036855", http.StatusBadRequest},
		{"raw header one over the cap", "/detect/raw", fmt.Sprint(day + 1), http.StatusBadRequest},
		{"raw query wraps negative", "/detect/raw?deadline_ms=9223372036855", "", http.StatusBadRequest},
		{"json header wraps negative", "/detect", "9223372036855", http.StatusBadRequest},
		{"json query one over the cap", fmt.Sprintf("/detect?deadline_ms=%d", day+1), "", http.StatusBadRequest},
		{"raw header at the cap", "/detect/raw", fmt.Sprint(day), http.StatusOK},
	}
	for _, c := range cases {
		body := jsonBody
		if strings.HasPrefix(c.path, "/detect/raw") {
			body = png.Bytes()
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+c.path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if c.header != "" {
			req.Header.Set(serve.DeadlineHeader, c.header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d (%s), want %d", c.name, resp.StatusCode, raw, c.want)
		}
	}

	// The stream-open path refuses over plain HTTP, before the upgrade.
	conn, err := ws.Dial(ts.Listener.Addr().String(), "/stream?deadline_ms=9223372036855", nil, 5*time.Second)
	if err == nil {
		conn.Close()
	}
	var he *ws.HandshakeError
	if !errors.As(err, &he) || he.StatusCode != http.StatusBadRequest {
		t.Errorf("stream open over budget: %v, want a 400 handshake refusal", err)
	}
	if got := scrapeStats(t, ts).DeadlineExceededTotal; got != 0 {
		t.Errorf("deadline_exceeded_total %d, want 0: an over-budget deadline is malformed, not expired", got)
	}
}

// TestBrownoutDegradesAndRecovers drives the brownout loop end to end: a
// stalled batch worker backs up the default model's queue past the enter
// watermark, implicitly-routed requests transparently downgrade to the
// declared cheaper sibling (tagged "degraded":true and counted in
// degraded_total), and once the stall clears and the queue drains below
// the exit watermark requests are served un-degraded again.
func TestBrownoutDegradesAndRecovers(t *testing.T) {
	if err := faults.Arm("serve.batch#main=stall"); err != nil {
		t.Fatal(err)
	}
	defer faults.Disarm()

	mainNet, _, err := models.Build(models.DroNet, 64, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	cheapNet, _, err := models.Build(models.DroNet, 64, tensor.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := serve.Config{MaxBatch: 1, QueueDepth: 4}
	srv, err := serve.NewRouted([]serve.ModelEntry{
		{Name: "main", Engine: newEngine(t, mainNet, 1), Config: cfg, Degrade: "cheap"},
		{Name: "cheap", Engine: newEngine(t, cheapNet, 1), Config: serve.Config{MaxBatch: 4, QueueDepth: 16}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	frames := testFrames(1)

	// Fire implicit requests until one comes back degraded. Undegraded
	// ones park behind the stalled worker (that is the point: they are the
	// queue pressure), so every post runs in its own goroutine.
	type result struct {
		code int
		resp serve.DetectResponse
	}
	results := make(chan result, 64)
	var wg sync.WaitGroup
	post := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, dr, _ := postDeadline(t, ts, frames[0], 0)
			results <- result{code, dr}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	degraded := false
	launched := 0
	for !degraded {
		if time.Now().After(deadline) {
			t.Fatal("no request degraded within 5s of the stall")
		}
		post()
		launched++
		select {
		case r := <-results:
			if r.code == http.StatusOK && r.resp.Degraded {
				if r.resp.Model != "cheap" {
					t.Fatalf("degraded request served by %q, want the declared sibling \"cheap\"", r.resp.Model)
				}
				degraded = true
			}
		case <-time.After(20 * time.Millisecond):
		}
	}

	// Clear the stall; every parked request must complete (200 from the
	// recovered pool, or 429 if it was shed at the full queue).
	faults.Disarm()
	wg.Wait()
	close(results)
	for r := range results {
		if r.code != http.StatusOK && r.code != http.StatusTooManyRequests {
			t.Fatalf("parked request finished with status %d, want 200 or 429", r.code)
		}
	}

	// With the queue drained below the exit watermark the brownout latch
	// releases: implicit requests return to the default model, undegraded.
	recovered := false
	for !recovered && time.Now().Before(deadline) {
		code, dr, _ := postDeadline(t, ts, frames[0], 0)
		if code == http.StatusOK && !dr.Degraded && dr.Model == "main" {
			recovered = true
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("brownout never released after the stall cleared")
	}

	m := scrapeStats(t, ts)
	if m.DegradedTotal < 1 || m.Models["main"].DegradedTotal < 1 {
		t.Errorf("degraded_total fleet/main = %d/%d, want >= 1 on both",
			m.DegradedTotal, m.Models["main"].DegradedTotal)
	}
}
