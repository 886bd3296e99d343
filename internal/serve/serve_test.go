package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"image/png"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/imgproc"
	"repro/internal/models"
	"repro/internal/network"
	"repro/internal/pipeline"
	"repro/internal/quant"
	"repro/internal/serve"
	"repro/internal/tensor"
)

const (
	testSize   = 64
	testThresh = 0.1
	testNMS    = 0.45
)

func buildNet(t *testing.T) *network.Network {
	t.Helper()
	net, _, err := models.Build(models.DroNet, testSize, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// testFrames renders k deterministic scenes at the network input size.
func testFrames(k int) []*imgproc.Image {
	cfg := dataset.DefaultConfig(testSize)
	cfg.VehiclesMin, cfg.VehiclesMax = 1, 3
	cam := pipeline.NewSimCamera(cfg, k, 77)
	frames := make([]*imgproc.Image, 0, k)
	for {
		f, ok := cam.Next()
		if !ok {
			return frames
		}
		frames = append(frames, f.Image)
	}
}

// newServer builds an engine + micro-batching server over a fresh DroNet.
func newServer(t *testing.T, net *network.Network, workers int, cfg serve.Config) *serve.Server {
	t.Helper()
	eng, err := engine.New(net, engine.Config{Workers: workers, Thresh: testThresh, NMSThresh: testNMS})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// expectedDetections runs every frame through single-image inference on a
// private replica — the ground truth the micro-batched server must match.
func expectedDetections(t *testing.T, net *network.Network, frames []*imgproc.Image) [][]serve.DetectionJSON {
	t.Helper()
	replica := net.CloneForInference()
	out := make([][]serve.DetectionJSON, len(frames))
	for i, img := range frames {
		dets, err := replica.Detect(img.ToTensor(), testThresh, testNMS)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = make([]serve.DetectionJSON, len(dets))
		for j, d := range dets {
			out[i][j] = serve.DetectionJSON{X: d.Box.X, Y: d.Box.Y, W: d.Box.W, H: d.Box.H, Class: d.Class, Score: d.Score}
		}
	}
	return out
}

func postFrame(ts *httptest.Server, img *imgproc.Image) (*http.Response, error) {
	body, err := json.Marshal(serve.DetectRequest{Width: img.W, Height: img.H, Pixels: img.Pix})
	if err != nil {
		return nil, err
	}
	return http.Post(ts.URL+"/detect", "application/json", bytes.NewReader(body))
}

// TestConcurrentClientsBatchedIdentical is the serving acceptance test: 8
// concurrent clients hammer the JSON endpoint, the micro-batcher must form
// real batches (mean size > 1.5), and every single response must be
// identical to single-image inference on the same frame.
func TestConcurrentClientsBatchedIdentical(t *testing.T) {
	net := buildNet(t)
	const clients, perClient, distinct = 8, 5, 4
	frames := testFrames(distinct)
	want := expectedDetections(t, net, frames)

	srv := newServer(t, net, 1, serve.Config{MaxBatch: 8, QueueDepth: 64, Warm: true})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	errCh := make(chan error, clients*perClient)
	coalesce(t, srv, clients, func(c int) {
		for r := 0; r < perClient; r++ {
			idx := (c + r) % distinct
			resp, err := postFrame(ts, frames[idx])
			if err != nil {
				errCh <- err
				return
			}
			var got serve.DetectResponse
			err = json.NewDecoder(resp.Body).Decode(&got)
			resp.Body.Close()
			if err != nil {
				errCh <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errCh <- fmt.Errorf("client %d: status %d", c, resp.StatusCode)
				return
			}
			if !reflect.DeepEqual(got.Detections, want[idx]) {
				errCh <- fmt.Errorf("client %d frame %d: batched detections differ from single-image inference\ngot:  %v\nwant: %v",
					c, idx, got.Detections, want[idx])
				return
			}
		}
	})
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	stats := srv.Stats()
	if stats.Completed != clients*perClient {
		t.Errorf("completed %d of %d requests", stats.Completed, clients*perClient)
	}
	if want := batchBar(); stats.MeanBatchSize <= want {
		t.Errorf("mean batch size %.2f, want > %.1f (hist %v) — micro-batching is not coalescing", stats.MeanBatchSize, want, stats.BatchHist)
	}
}

// slowBatches holds every batch worker 10ms past each batch until the test
// ends. A batch grows only while every worker is busy, so this is what lets
// concurrent clients' requests pile up behind the one worker and coalesce.
func slowBatches(t *testing.T) {
	t.Helper()
	armFaults(t, "serve.batch=slow:10ms")
}

// coalesce runs client(0) … client(clients-1) concurrently against srv,
// whose one worker it holds at engine.execute until each client still
// running has a request admitted, so requests from different clients share
// batches whatever the scheduler does. A client must have at most one
// request admitted and not yet executed at a time.
func coalesce(t *testing.T, srv *serve.Server, clients int, client func(c int)) {
	t.Helper()
	armFaults(t, "engine.execute=stall")
	var wg sync.WaitGroup
	var open atomic.Int64 // clients still running
	open.Store(int64(clients))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer open.Add(-1)
			client(c)
		}(c)
	}
	pending := func(st serve.Stats) int64 {
		executed := 0
		for size, count := range st.BatchHist {
			executed += size * count
		}
		return int64(st.Received) - int64(executed)
	}
	for {
		waitFleet(t, srv, "a held batch and every running client's next request admitted", func(st serve.Stats) bool {
			return open.Load() == 0 || faults.Stalled() == 1 && pending(st) >= open.Load()
		})
		if open.Load() == 0 {
			break
		}
		// Re-arming releases the held batch and holds the next one. Until
		// the released batch has executed, pending still counts its
		// requests, so wait for that before looking for the next.
		batches := srv.Stats().Batches
		if err := faults.Arm("engine.execute=stall"); err != nil {
			t.Fatal(err)
		}
		waitFleet(t, srv, "the released batch executed", func(st serve.Stats) bool { return st.Batches > batches })
	}
	wg.Wait()
}

// armFaults arms a fault spec until the test ends.
func armFaults(t *testing.T, spec string) {
	t.Helper()
	if err := faults.Arm(spec); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faults.Disarm)
}

// batchBar is the mean-batch-size acceptance bar: 2.5 normally; under the
// race detector the instrumented HTTP round-trip is so slow that fewer
// requests arrive while the worker is held, so only basic coalescing (>1.5)
// is asserted there.
func batchBar() float64 {
	if raceEnabled {
		return 1.5
	}
	return 2.5
}

// TestInt8ServingBatchedIdentical is the quantized-path acceptance test: an
// INT8 model behind the same admission queue and micro-batcher must form
// real batches under concurrent clients and answer every request with
// exactly the detections of single-image int8 inference, while /metrics
// labels the active precision.
func TestInt8ServingBatchedIdentical(t *testing.T) {
	net := buildNet(t)
	const clients, perClient, distinct = 8, 5, 4
	frames := testFrames(distinct)
	calib := make([]*tensor.Tensor, len(frames))
	for i, img := range frames {
		calib[i] = img.ToTensor()
	}
	qnet, err := quant.Quantize(net, calib)
	if err != nil {
		t.Fatal(err)
	}

	// Single-image int8 reference on a private replica.
	replica := qnet.CloneForInference()
	want := make([][]serve.DetectionJSON, len(frames))
	for i, img := range frames {
		per, err := replica.DetectBatch(img.ToTensor(), testThresh, testNMS)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = make([]serve.DetectionJSON, len(per[0]))
		for j, d := range per[0] {
			want[i][j] = serve.DetectionJSON{X: d.Box.X, Y: d.Box.Y, W: d.Box.W, H: d.Box.H, Class: d.Class, Score: d.Score}
		}
	}

	eng, err := engine.New(qnet, engine.Config{Workers: 1, Thresh: testThresh, NMSThresh: testNMS})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(eng, serve.Config{
		MaxBatch: 8, QueueDepth: 64, Warm: true, Precision: "int8",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	errCh := make(chan error, clients*perClient)
	coalesce(t, srv, clients, func(c int) {
		for r := 0; r < perClient; r++ {
			idx := (c + r) % distinct
			resp, err := postFrame(ts, frames[idx])
			if err != nil {
				errCh <- err
				return
			}
			var got serve.DetectResponse
			err = json.NewDecoder(resp.Body).Decode(&got)
			resp.Body.Close()
			if err != nil {
				errCh <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errCh <- fmt.Errorf("client %d: status %d", c, resp.StatusCode)
				return
			}
			if !reflect.DeepEqual(got.Detections, want[idx]) {
				errCh <- fmt.Errorf("client %d frame %d: batched int8 detections differ from single-image int8\ngot:  %v\nwant: %v",
					c, idx, got.Detections, want[idx])
				return
			}
		}
	})
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	stats := srv.Stats()
	if stats.Precision != "int8" {
		t.Errorf("stats precision = %q, want int8", stats.Precision)
	}
	if stats.Completed != clients*perClient {
		t.Errorf("completed %d of %d requests", stats.Completed, clients*perClient)
	}
	if want := batchBar(); stats.MeanBatchSize <= want {
		t.Errorf("mean batch size %.2f, want > %.1f (hist %v) — int8 micro-batching is not coalescing", stats.MeanBatchSize, want, stats.BatchHist)
	}
}

// TestOverloadReturns429 drives far more concurrent requests than the
// 1-deep admission queue can hold: the server must shed load with 429
// instead of queueing unboundedly, and every accepted request must still
// succeed. The worker is held until every request has reached admission
// and one has been turned away, so no forward can drain the queue first.
func TestOverloadReturns429(t *testing.T) {
	net, _, err := models.Build(models.DroNet, 192, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := dataset.DefaultConfig(192)
	cfg.VehiclesMin, cfg.VehiclesMax = 1, 3
	cam := pipeline.NewSimCamera(cfg, 1, 77)
	f, _ := cam.Next()
	frames := []*imgproc.Image{f.Image}
	srv := newServer(t, net, 1, serve.Config{MaxBatch: 2, QueueDepth: 1, Warm: true})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const inFlight = 16
	armFaults(t, "serve.batch=stall")
	statuses := make(chan int, inFlight)
	var wg sync.WaitGroup
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := postFrame(ts, frames[0])
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var body serve.DetectResponse
			if resp.StatusCode == http.StatusOK {
				if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
					t.Errorf("200 with undecodable body: %v", err)
				}
			}
			statuses <- resp.StatusCode
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for st := srv.Stats(); st.Received < inFlight || st.Rejected == 0; st = srv.Stats() {
		if time.Now().After(deadline) {
			faults.Disarm()
			t.Fatalf("waiting for every request to reach admission and one 429: stats %+v", st)
		}
		runtime.Gosched()
	}
	faults.Disarm()
	wg.Wait()
	close(statuses)
	counts := map[int]int{}
	for s := range statuses {
		counts[s]++
	}
	if counts[http.StatusTooManyRequests] == 0 {
		t.Errorf("no 429 under %d concurrent requests against a 1-deep queue: %v", inFlight, counts)
	}
	if counts[http.StatusOK] == 0 {
		t.Errorf("no request succeeded under overload: %v", counts)
	}
	if counts[http.StatusOK]+counts[http.StatusTooManyRequests] != inFlight {
		t.Errorf("unexpected statuses: %v", counts)
	}
	if got := srv.Stats().Rejected; got == 0 {
		t.Error("metrics did not count any rejection")
	}
}

// waitAdmitted polls srv until it has admitted at least one request, so
// the shutdown that follows always races live work.
func waitAdmitted(t *testing.T, srv *serve.Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for st := srv.Stats(); st.Received <= st.Rejected; st = srv.Stats() {
		if time.Now().After(deadline) {
			t.Fatal("no request admitted within 10s")
		}
		runtime.Gosched()
	}
}

// TestShutdownDrainsAndRejects: Close answers everything already admitted,
// and later requests get 503.
func TestShutdownDrains(t *testing.T) {
	net := buildNet(t)
	frames := testFrames(1)
	srv := newServer(t, net, 2, serve.Config{MaxBatch: 4, QueueDepth: 16})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// In-flight load racing the shutdown: every request must resolve to
	// 200 (admitted before close, drained) or 503 (after close) — never
	// hang or drop.
	var wg sync.WaitGroup
	statuses := make(chan int, 12)
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := postFrame(ts, frames[0])
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}
	waitAdmitted(t, srv)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(statuses)
	for s := range statuses {
		if s != http.StatusOK && s != http.StatusServiceUnavailable {
			t.Errorf("status %d during shutdown, want 200 or 503", s)
		}
	}

	resp, err := postFrame(ts, frames[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown request got %d, want 503", resp.StatusCode)
	}
}

// TestRawEndpointMatchesJSON: the PNG path decodes to the same image and
// therefore the same detections as the float-pixel JSON path.
func TestRawEndpointMatchesJSON(t *testing.T) {
	net := buildNet(t)
	frames := testFrames(1)
	want := expectedDetections(t, net, frames)
	srv := newServer(t, net, 1, serve.Config{MaxBatch: 1, QueueDepth: 8})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var buf bytes.Buffer
	if err := encodePNG(&buf, frames[0]); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/detect/raw", "image/png", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("raw endpoint: status %d", resp.StatusCode)
	}
	var got serve.DetectResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	// PNG is 8-bit, so pixels quantize and detections can shift slightly;
	// require the same detection count and closely matching boxes instead
	// of byte identity.
	if len(got.Detections) != len(want[0]) {
		t.Fatalf("raw endpoint found %d detections, JSON path %d", len(got.Detections), len(want[0]))
	}
	for i, d := range got.Detections {
		w := want[0][i]
		if abs(d.X-w.X) > 0.02 || abs(d.Y-w.Y) > 0.02 || abs(d.W-w.W) > 0.02 || abs(d.H-w.H) > 0.02 {
			t.Errorf("detection %d drifted: got %+v want %+v", i, d, w)
		}
	}
}

func encodePNG(buf *bytes.Buffer, img *imgproc.Image) error {
	return png.Encode(buf, img.ToNRGBA())
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestMetricsEndpoint sanity-checks the /metrics and /healthz JSON.
func TestMetricsEndpoint(t *testing.T) {
	net := buildNet(t)
	frames := testFrames(1)
	srv := newServer(t, net, 1, serve.Config{MaxBatch: 2, QueueDepth: 8})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := postFrame(ts, frames[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Errorf("healthz status %v", health["status"])
	}
	if k, _ := health["kernel"].(string); k != tensor.KernelName() {
		t.Errorf("healthz kernel = %v, want %q", health["kernel"], tensor.KernelName())
	}
	if streaming, _ := health["streaming"].(map[string]any); streaming["policy"] != serve.PolicyReject {
		t.Errorf("healthz streaming = %v, want policy %q", health["streaming"], serve.PolicyReject)
	}
	models, _ := health["models"].(map[string]any)
	for name, m := range models {
		mm, _ := m.(map[string]any)
		if wb, _ := mm["weight_bytes"].(float64); wb <= 0 {
			t.Errorf("healthz model %s weight_bytes = %v, want > 0", name, mm["weight_bytes"])
		}
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	var stats serve.Stats
	if err := json.NewDecoder(mr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 1 || stats.Batches != 1 {
		t.Errorf("stats after one request: completed %d batches %d", stats.Completed, stats.Batches)
	}
	if stats.LatencyP50Ms <= 0 || stats.AggregateFPS <= 0 {
		t.Errorf("stats missing latency/throughput: %+v", stats)
	}
}

// TestBadRequests covers the 4xx paths.
func TestBadRequests(t *testing.T) {
	net := buildNet(t)
	srv := newServer(t, net, 1, serve.Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cases := []struct {
		name, path, body string
		want             int
	}{
		{"not json", "/detect", "{", http.StatusBadRequest},
		{"bad dims", "/detect", `{"width":0,"height":4,"pixels":[]}`, http.StatusBadRequest},
		{"pixel mismatch", "/detect", `{"width":2,"height":2,"pixels":[0.5]}`, http.StatusBadRequest},
		// Regression: 3*2^32*2^32 overflows int64 to 0, which would "match"
		// the empty pixels array and panic the batch worker on Resize.
		{"dim overflow", "/detect", `{"width":4294967296,"height":4294967296,"pixels":[]}`, http.StatusBadRequest},
		{"oversized", "/detect", `{"width":100000,"height":2,"pixels":[]}`, http.StatusBadRequest},
		// One trailing-data rule for /detect and stream frames: only
		// whitespace may follow the object.
		{"trailing garbage", "/detect", `{"width":1,"height":1,"pixels":[0,0,0]} x`, http.StatusBadRequest},
		{"second object", "/detect", `{"width":1,"height":1,"pixels":[0,0,0]}{"width":1,"height":1,"pixels":[0,0,0]}`, http.StatusBadRequest},
		// A 2MB array behind a 1x1 declaration is refused at its fourth
		// element (TestDecodeFrameBoundsPixels pins that it is not
		// materialised first).
		{"pixels past declared dims", "/detect", `{"width":1,"height":1,"pixels":[` + strings.Repeat("0,", 1<<20) + `0]}`, http.StatusBadRequest},
		{"raw not an image", "/detect/raw", "not a png", http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+c.path, "application/json", bytes.NewReader([]byte(c.body)))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
		if err != nil || e.Error == "" {
			t.Errorf("%s: error body not well-formed JSON: %v", c.name, err)
		}
	}

	resp, err := http.Get(ts.URL + "/detect")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /detect: status %d, want 405", resp.StatusCode)
	}
}

// TestAltitudeGating: with an engine-level altitude filter, a request
// carrying an implausible altitude must lose detections relative to one
// without, proving the per-image altitude rides the batch correctly.
func TestAltitudeGating(t *testing.T) {
	net := buildNet(t)
	frames := testFrames(1)
	gate := detect.NewVehicleAltitudeFilter()
	eng, err := engine.New(net, engine.Config{Workers: 1, Thresh: testThresh, NMSThresh: testNMS, AltitudeFilter: &gate})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(eng, serve.Config{MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func(alt float64) int {
		body, _ := json.Marshal(serve.DetectRequest{
			Width: frames[0].W, Height: frames[0].H, Pixels: frames[0].Pix, Altitude: alt,
		})
		resp, err := http.Post(ts.URL+"/detect", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("altitude %g: status %d", alt, resp.StatusCode)
		}
		var out serve.DetectResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return len(out.Detections)
	}

	ungated := post(0) // altitude 0 skips the gate
	if ungated == 0 {
		t.Skip("random-weight detector produced no detections to gate")
	}
	// From 10km every vehicle-sized detection is implausibly large.
	if gated := post(10000); gated >= ungated {
		t.Errorf("altitude gate did not prune: %d gated vs %d ungated", gated, ungated)
	}
}
