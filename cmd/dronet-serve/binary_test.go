package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/serve"
	"repro/internal/ws"
)

// The checks in this file need the built binary: its flags, its startup
// handshake, its signal handling and its exit status. Everything the
// server does behind them is tested in-process in internal/serve.

// drainTimeout bounds how long a SIGTERMed server may take to exit.
const drainTimeout = 30 * time.Second

// TestBinary builds dronet-serve and runs a single-model server and a
// routed registry side by side.
func TestBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the dronet-serve binary")
	}
	dir := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", dir+"/", ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	bin := filepath.Join(dir, "dronet-serve")
	t.Run("single", func(t *testing.T) { t.Parallel(); testSingle(t, bin) })
	t.Run("routed", func(t *testing.T) { t.Parallel(); testRouted(t, bin) })
	t.Run("early-sigterm", func(t *testing.T) { t.Parallel(); testEarlySIGTERM(t, bin) })
}

// testSingle: an int8 model calibrated at startup, the admin lifecycle
// under traffic, the shard label, the session cap, idle eviction and the
// SIGTERM drain of a live session.
func testSingle(t *testing.T, bin string) {
	p := spawn(t, bin, true, "-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0", "-size", "64", "-scale", "0.25",
		"-workers", "2", "-max-batch", "4", "-precision", "int8", "-shard-id", "shard-x",
		"-max-sessions", "2", "-session-idle", "700ms")
	url, admin := "http://"+p.Addr, "http://"+p.AdminAddr
	var health map[string]any
	request(t, http.MethodGet, url+"/healthz", "", http.StatusOK, &health)
	if health["status"] != "ok" || health["precision"] != "int8" || health["shard_id"] != "shard-x" {
		t.Errorf("healthz %v, want status ok, precision int8 and shard_id shard-x", health)
	}
	body := frame(t, 64, 0)
	if code, _ := post(t, url+"/detect", body, nil); code != http.StatusOK {
		t.Fatalf("int8 /detect: status %d", code)
	}

	// Model lifecycle while a client keeps posting to the default model.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var once sync.Once
	stopTraffic := func() { once.Do(func() { close(stop); wg.Wait() }) }
	defer stopTraffic() // also on t.Fatal, before the test ends
	wg.Add(1)
	go func() {
		defer wg.Done()
		served := 0
		for {
			select {
			case <-stop:
				if served == 0 {
					t.Error("background traffic got no 200 during the lifecycle walk")
				}
				return
			default:
			}
			switch code, _ := post(t, url+"/detect", body, nil); code {
			case http.StatusOK:
				served++
			case http.StatusTooManyRequests:
			default:
				t.Errorf("traffic during the lifecycle walk: status %d, want 200 or 429", code)
				return
			}
		}
	}()
	type gens struct {
		Generation    uint64 `json:"generation"`
		OldGeneration uint64 `json:"old_generation"`
	}
	var added, swapped, swappedDef gens
	request(t, http.MethodPost, admin+"/admin/models", `{"spec": "hot=dronet:64:fp32"}`, http.StatusCreated, &added)
	if _, r := post(t, url+"/detect?model=hot", body, nil); r.Model != "hot" || r.Generation != added.Generation {
		t.Errorf("hot-added model answered as %q generation %d, want hot %d", r.Model, r.Generation, added.Generation)
	}
	request(t, http.MethodPut, admin+"/admin/models/hot", `{"spec": "hot=dronet:64:fp32"}`, http.StatusOK, &swapped)
	if swapped.OldGeneration != added.Generation || swapped.Generation <= swapped.OldGeneration {
		t.Errorf("swap of hot: generations %+v, added at %d", swapped, added.Generation)
	}
	if _, r := post(t, url+"/detect?model=hot", body, nil); r.Generation != swapped.Generation {
		t.Errorf("after the swap hot answers at generation %d, want %d", r.Generation, swapped.Generation)
	}
	request(t, http.MethodPut, admin+"/admin/models/default", `{"spec": "default=dronet:64:int8"}`, http.StatusOK, &swappedDef)
	if swappedDef.Generation <= swappedDef.OldGeneration {
		t.Errorf("swap of default under traffic: generations %+v", swappedDef)
	}
	request(t, http.MethodDelete, admin+"/admin/models/hot", "", http.StatusOK, nil)
	if code, _ := post(t, url+"/detect?model=hot", body, nil); code != http.StatusNotFound {
		t.Errorf("removed model: status %d, want 404", code)
	}
	stopTraffic()

	// Sessions: two fit, a third is refused, a quiet one is evicted.
	a := dial(t, p.Addr, "?camera=a")
	if h := expect(t, a, serve.MsgHello, ""); h.Session == "" {
		t.Error("hello without a session id")
	}
	if err := a.WriteMessage(body); err != nil {
		t.Fatal(err)
	}
	if m := expect(t, a, serve.MsgResult, ""); m.Frame != 1 {
		t.Errorf("first result: tracker frame %d, want 1", m.Frame)
	}
	b := dial(t, p.Addr, "?camera=b")
	expect(t, b, serve.MsgHello, "")
	var he *ws.HandshakeError
	if _, err := ws.Dial(p.Addr, "/stream?camera=c", nil, 5*time.Second); !errors.As(err, &he) || he.StatusCode != http.StatusServiceUnavailable || he.RetryAfter == "" {
		t.Errorf("session over the cap: %v, want a 503 with Retry-After", err)
	}
	_ = b.WriteClose(1000, "done")
	expect(t, a, serve.MsgBye, serve.ByeReasonIdle)
	if _, err := a.ReadMessage(); !errors.Is(err, ws.ErrPeerClosed) {
		t.Errorf("after the idle bye: %v, want the server's close frame", err)
	}

	// SIGTERM: a live session is told "drain" and the server exits 0.
	var d *ws.Conn
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		c, err := ws.Dial(p.Addr, "/stream?camera=d", nil, 5*time.Second)
		if err == nil {
			d = c
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("open a session once the others are gone: %v", err)
		}
	}
	defer d.Close()
	_ = d.SetReadDeadline(time.Now().Add(drainTimeout))
	expect(t, d, serve.MsgHello, "")
	if err := p.Cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	expect(t, d, serve.MsgBye, serve.ByeReasonDrain)
	if err := p.Cmd.Wait(); err != nil {
		t.Errorf("exit after SIGTERM: %v", err)
	}
}

// testRouted: a two-model registry routes by query, header and altitude,
// labels each model's precision and answers an unknown model with 404.
func testRouted(t *testing.T, bin string) {
	p := spawn(t, bin, false, "-addr", "127.0.0.1:0", "-scale", "0.25", "-workers", "1", "-max-batch", "4",
		"-models", "low=dronet:64:int8:150,high=dronet:96:fp32")
	url := "http://" + p.Addr
	var health struct {
		DefaultModel string                    `json:"default_model"`
		Models       map[string]map[string]any `json:"models"`
	}
	request(t, http.MethodGet, url+"/healthz", "", http.StatusOK, &health)
	if health.DefaultModel != "low" || health.Models["low"]["precision"] != "int8" || health.Models["high"]["precision"] != "fp32" {
		t.Errorf("healthz: default %q, low %v, high %v", health.DefaultModel, health.Models["low"], health.Models["high"])
	}
	for _, c := range []struct {
		target   string
		header   http.Header
		altitude float64
		want     string
	}{
		{"/detect?model=high", nil, 0, "high"},
		{"/detect", http.Header{"X-Model": {"low"}}, 0, "low"},
		{"/detect", nil, 300, "high"},
	} {
		if code, r := post(t, url+c.target, frame(t, 96, c.altitude), c.header); code != http.StatusOK || r.Model != c.want {
			t.Errorf("%s %v altitude %v: status %d from %q, want 200 from %s", c.target, c.header, c.altitude, code, r.Model, c.want)
		}
	}
	if code, _ := post(t, url+"/detect?model=no-such-model", frame(t, 96, 0), nil); code != http.StatusNotFound {
		t.Errorf("unknown model: status %d, want 404", code)
	}
	if err := p.Drain(drainTimeout); err != nil {
		t.Errorf("exit after SIGTERM: %v", err)
	}
}

// testEarlySIGTERM: a SIGTERM sent the moment the "listening on" line is
// out still drains: the server logs "draining" and exits 0.
func testEarlySIGTERM(t *testing.T, bin string) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-size", "64", "-scale", "0.25", "-workers", "1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() && !strings.HasPrefix(sc.Text(), "listening on ") {
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() {
		_, _ = io.Copy(io.Discard, stdout)
		exited <- cmd.Wait()
	}()
	select {
	case err = <-exited:
	case <-time.After(drainTimeout):
		_ = cmd.Process.Kill()
		<-exited
		t.Fatalf("ignored a SIGTERM for %s and was killed\n%s", drainTimeout, &stderr)
	}
	if err != nil || !strings.Contains(stderr.String(), "draining") {
		t.Errorf("SIGTERM right after the handshake: exit %v, want 0 after a draining line\n%s", err, &stderr)
	}
}

// spawn starts bin through cluster.Spawn and drains it when the test ends.
func spawn(t *testing.T, bin string, admin bool, args ...string) *cluster.Process {
	t.Helper()
	p, err := cluster.Spawn(bin, args, admin)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Drain(drainTimeout) })
	return p
}

// frame is one synthetic scene of side size as a /detect or stream body.
func frame(t *testing.T, size int, altitude float64) []byte {
	f, _ := pipeline.NewSimCamera(dataset.DefaultConfig(size), 1, 42).Next()
	body, err := json.Marshal(serve.StreamFrame{Width: f.Image.W, Height: f.Image.H, Pixels: f.Image.Pix, Altitude: altitude})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// post sends a JSON frame and returns the status and, on 200, the answer.
func post(t *testing.T, url string, body []byte, hdr http.Header) (int, serve.DetectResponse) {
	var r serve.DetectResponse
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	var resp *http.Response
	if err == nil {
		req.Header = hdr
		resp, err = http.DefaultClient.Do(req)
	}
	if err != nil {
		t.Errorf("POST %s: %v", url, err)
		return 0, r
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil || r.Detections == nil {
			t.Errorf("POST %s: %v, detections %v", url, err, r.Detections)
		}
	}
	return resp.StatusCode, r
}

// request sends one request, checks its status and decodes the answer into
// out unless out is nil.
func request(t *testing.T, method, url, body string, want int, out any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		t.Fatalf("%s %s: status %d, want %d", method, url, resp.StatusCode, want)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
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

// expect reads the next session message and checks its type and, for a
// bye, its reason.
func expect(t *testing.T, c *ws.Conn, typ, reason string) serve.StreamMessage {
	t.Helper()
	raw, err := c.ReadMessage()
	if err != nil {
		t.Fatalf("waiting for %s %s: %v", typ, reason, err)
	}
	var m serve.StreamMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Type != typ || m.Reason != reason {
		t.Fatalf("got %s %q (%s), want %s %q", m.Type, m.Reason, m.Error, typ, reason)
	}
	return m
}
