package serve

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/imgproc"
	"repro/internal/models"
	"repro/internal/tensor"
)

// newTestServer builds a 1-worker single-model server for the internal
// retention tests.
func newTestServer(t *testing.T) *Server {
	t.Helper()
	net, _, err := models.Build(models.DroNet, 64, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(net, engine.Config{Workers: 1, Thresh: 0.1, NMSThresh: 0.45})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewRouted([]ModelEntry{{Name: "only", Engine: eng, Config: Config{MaxBatch: 2, QueueDepth: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// testImage returns a fresh heap-allocated frame sized for the test model.
func testImage() *imgproc.Image {
	return &imgproc.Image{W: 64, H: 64, Pix: make([]float32, 3*64*64)}
}

// awaitCollected GCs until the finalizer fires or the deadline passes.
func awaitCollected(t *testing.T, collected chan struct{}, what string) {
	t.Helper()
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatalf("%s: decoded frame still reachable after GC — the serving path retains it", what)
}

// TestServedFrameNotRetained: after a request has been answered, nothing in
// the serving pipeline — the request object, the batcher, or the worker's
// persistent staging slice — may keep the decoded frame alive. The worker
// staging slice is the regression surface: it is reused across batches
// (imgs[:0]), so without explicit clearing an idle worker pins the last
// batch's frames indefinitely.
func TestServedFrameNotRetained(t *testing.T) {
	srv := newTestServer(t)
	defer srv.Close()
	h := srv.table.Load().byName["only"]

	img := testImage()
	collected := make(chan struct{})
	runtime.SetFinalizer(img, func(*imgproc.Image) { close(collected) })
	resp, _, err := srv.detect(context.Background(), h, img, 0, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.err != nil {
		t.Fatal(resp.err)
	}
	img = nil
	awaitCollected(t, collected, "answered request")
}

// TestRejectedFrameNotRetained: a request turned away at admission (here
// the post-Close 503 path, the same non-enqueued exit as a per-model 429)
// must not leave any reference to the decoded frame behind.
func TestRejectedFrameNotRetained(t *testing.T) {
	srv := newTestServer(t)
	h := srv.table.Load().byName["only"]
	srv.Close()

	img := testImage()
	collected := make(chan struct{})
	runtime.SetFinalizer(img, func(*imgproc.Image) { close(collected) })
	if _, _, err := srv.detect(context.Background(), h, img, 0, time.Time{}); err != ErrClosed {
		t.Fatalf("detect on closed server: err=%v, want ErrClosed", err)
	}
	img = nil
	awaitCollected(t, collected, "rejected request")
}
