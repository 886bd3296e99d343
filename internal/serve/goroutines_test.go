package serve_test

import (
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// goroutinesIn counts live goroutines with any frame in the given package
// (matched by symbol prefix, e.g. "repro/internal/serve." — the trailing
// dot keeps the _test package's own goroutines out of the tally).
func goroutinesIn(pkg string) int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	count := 0
	for _, st := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(st, pkg) {
			count++
		}
	}
	return count
}

// waitGoroutinesIn polls until the package goroutine count drops to the
// baseline or the timeout expires, returning the final count.
func waitGoroutinesIn(pkg string, baseline int, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		n := goroutinesIn(pkg)
		if n <= baseline || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerCloseGoroutineHygiene pins shutdown hygiene: after Close
// returns on a server that carried traffic, no goroutine with a frame in
// internal/serve survives — batch loops, workers and queue drains are all
// joined, not leaked.
func TestServerCloseGoroutineHygiene(t *testing.T) {
	const pkg = "repro/internal/serve."
	baseline := goroutinesIn(pkg)

	srv := newServer(t, buildNet(t), 2, serve.Config{MaxBatch: 4, QueueDepth: 16})
	ts := httptest.NewServer(srv)
	frames := testFrames(2)
	for i := 0; i < 6; i++ {
		resp, err := postFrame(ts, frames[i%len(frames)])
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	ts.Close()
	srv.Close()

	if n := waitGoroutinesIn(pkg, baseline, 3*time.Second); n > baseline {
		buf := make([]byte, 1<<20)
		m := runtime.Stack(buf, true)
		t.Fatalf("%d internal/serve goroutines survive Close (baseline %d):\n%s", n, baseline, buf[:m])
	}
}
