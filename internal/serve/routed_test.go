package serve_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/imgproc"
	"repro/internal/models"
	"repro/internal/network"
	"repro/internal/pipeline"
	"repro/internal/quant"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// framesAt renders k deterministic scenes at an arbitrary input size.
func framesAt(size, k int, seed uint64) []*imgproc.Image {
	cfg := dataset.DefaultConfig(size)
	cfg.VehiclesMin, cfg.VehiclesMax = 1, 3
	cam := pipeline.NewSimCamera(cfg, k, seed)
	frames := make([]*imgproc.Image, 0, k)
	for {
		f, ok := cam.Next()
		if !ok {
			return frames
		}
		frames = append(frames, f.Image)
	}
}

// newEngine wraps a model in a single-worker engine with the test
// thresholds.
func newEngine(t *testing.T, mdl *network.Network, workers int) *engine.Engine {
	t.Helper()
	eng, err := engine.New(mdl, engine.Config{Workers: workers, Thresh: testThresh, NMSThresh: testNMS})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// twoModelServer builds the canonical routed fixture of the acceptance
// criteria: an INT8 DroNet at 64px serving the low-altitude band and a
// float32 DroNet at 96px above it — one fp32 and one int8 model, different
// input sizes, one process. Returns the server plus each model's reference
// single-image results on its own frame set.
func twoModelServer(t *testing.T, cfg serve.Config) (srv *serve.Server, lowFrames, highFrames []*imgproc.Image, lowWant, highWant [][]serve.DetectionJSON) {
	t.Helper()
	lowNet, _, err := models.Build(models.DroNet, 64, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	lowFrames = framesAt(64, 4, 77)
	calib := make([]*tensor.Tensor, len(lowFrames))
	for i, img := range lowFrames {
		calib[i] = img.ToTensor()
	}
	lowQ, err := quant.Quantize(lowNet, calib)
	if err != nil {
		t.Fatal(err)
	}
	highNet, _, err := models.Build(models.DroNet, 96, tensor.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	highFrames = framesAt(96, 4, 78)

	lowCfg, highCfg := cfg, cfg
	lowCfg.Precision = "int8"
	highCfg.Precision = "fp32"
	srv, err = serve.NewRouted([]serve.ModelEntry{
		{Name: "low", Engine: newEngine(t, lowQ, 1), Config: lowCfg, MaxAltitude: 150},
		{Name: "high", Engine: newEngine(t, highNet, 1), Config: highCfg},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	// Reference results: single-image inference on private replicas — what
	// each model would answer if it were served alone.
	lowWant = singleImageWant(t, lowQ, lowFrames)
	highWant = singleImageWant(t, highNet, highFrames)
	return srv, lowFrames, highFrames, lowWant, highWant
}

func singleImageWant(t *testing.T, mdl *network.Network, frames []*imgproc.Image) [][]serve.DetectionJSON {
	t.Helper()
	replica := mdl.CloneForInference()
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
	return want
}

// postRouted sends a frame with an explicit model selection (via query or
// header) and/or an altitude, returning the decoded response and status.
func postRouted(ts *httptest.Server, img *imgproc.Image, query, header string, altitude float64) (serve.DetectResponse, int, error) {
	body, err := json.Marshal(serve.DetectRequest{Width: img.W, Height: img.H, Pixels: img.Pix, Altitude: altitude})
	if err != nil {
		return serve.DetectResponse{}, 0, err
	}
	url := ts.URL + "/detect"
	if query != "" {
		url += "?model=" + query
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return serve.DetectResponse{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if header != "" {
		req.Header.Set("X-Model", header)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		return serve.DetectResponse{}, 0, err
	}
	defer resp.Body.Close()
	var out serve.DetectResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return serve.DetectResponse{}, resp.StatusCode, err
		}
	}
	return out, resp.StatusCode, nil
}

// TestRoutedUnknownModel404: an explicit selection of an unregistered model
// is a 404 with a JSON error naming the hosted set — never a silent reroute
// to the default.
func TestRoutedUnknownModel404(t *testing.T) {
	srv, lowFrames, _, _, _ := twoModelServer(t, serve.Config{MaxBatch: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, sel := range []struct{ query, header string }{{"nope", ""}, {"", "nope"}} {
		body, _ := json.Marshal(serve.DetectRequest{Width: lowFrames[0].W, Height: lowFrames[0].H, Pixels: lowFrames[0].Pix})
		url := ts.URL + "/detect"
		if sel.query != "" {
			url += "?model=" + sel.query
		}
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if sel.header != "" {
			req.Header.Set("X-Model", sel.header)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("selection %+v: status %d, want 404", sel, resp.StatusCode)
		}
		if err != nil || e.Error == "" {
			t.Errorf("selection %+v: 404 body not a JSON error: %v", sel, err)
		}
	}

	// The raw endpoint routes before reading the body at all.
	resp, err := http.Post(ts.URL+"/detect/raw?model=nope", "image/png", bytes.NewReader([]byte("ignored")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("raw endpoint unknown model: status %d, want 404", resp.StatusCode)
	}
}

// TestRoutedPerModelBatchedIdentical is the multi-model acceptance test:
// two models — one fp32, one int8, different input sizes — served
// concurrently from one process must each answer byte-identically to the
// same model served alone, while both micro-batchers coalesce their own
// traffic and /metrics attributes every request to the right model.
func TestRoutedPerModelBatchedIdentical(t *testing.T) {
	srv, lowFrames, highFrames, lowWant, highWant := twoModelServer(t,
		serve.Config{MaxBatch: 8, QueueDepth: 64, Warm: true})
	slowBatches(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const clientsPerModel, perClient = 4, 4
	var wg sync.WaitGroup
	errCh := make(chan error, 2*clientsPerModel*perClient)
	drive := func(name string, frames []*imgproc.Image, want [][]serve.DetectionJSON) {
		for c := 0; c < clientsPerModel; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for r := 0; r < perClient; r++ {
					idx := (c + r) % len(frames)
					// Alternate the two selection mechanisms so both stay
					// covered under concurrency.
					query, header := name, ""
					if r%2 == 1 {
						query, header = "", name
					}
					got, status, err := postRouted(ts, frames[idx], query, header, 0)
					if err != nil {
						errCh <- err
						return
					}
					if status != http.StatusOK {
						errCh <- fmt.Errorf("%s client %d: status %d", name, c, status)
						return
					}
					if got.Model != name {
						errCh <- fmt.Errorf("%s client %d: served by %q", name, c, got.Model)
						return
					}
					if !reflect.DeepEqual(got.Detections, want[idx]) {
						errCh <- fmt.Errorf("%s frame %d: routed detections differ from the model served alone\ngot:  %v\nwant: %v",
							name, idx, got.Detections, want[idx])
						return
					}
				}
			}(c)
		}
	}
	drive("low", lowFrames, lowWant)
	drive("high", highFrames, highWant)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	const perModel = clientsPerModel * perClient
	for _, name := range []string{"low", "high"} {
		st, ok := srv.ModelStats(name)
		if !ok {
			t.Fatalf("no stats for model %q", name)
		}
		if st.Completed != perModel {
			t.Errorf("model %s completed %d of %d requests", name, st.Completed, perModel)
		}
		if st.Model != name {
			t.Errorf("model stats label = %q, want %q", st.Model, name)
		}
		// Under the race detector the instrumented round-trips are too slow
		// for 4 clients to reliably queue behind a held worker, so the
		// coalescing bar only applies to the uninstrumented build (the same
		// relaxation batchBar applies to the single-model tests).
		if !raceEnabled && st.MeanBatchSize <= 1 {
			t.Errorf("model %s mean batch %.2f (hist %v) — per-model batcher not coalescing", name, st.MeanBatchSize, st.BatchHist)
		}
	}
	if fleet := srv.Stats(); fleet.Completed != 2*perModel {
		t.Errorf("fleet completed %d of %d", fleet.Completed, 2*perModel)
	} else if fleet.Precision != "mixed" {
		t.Errorf("fleet precision = %q, want mixed", fleet.Precision)
	}
}

// TestAltitudeDefaultRoute pins the routing precedence: explicit selection
// (query beating header) > altitude band > default model.
func TestAltitudeDefaultRoute(t *testing.T) {
	srv, lowFrames, highFrames, _, _ := twoModelServer(t, serve.Config{MaxBatch: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cases := []struct {
		name          string
		img           *imgproc.Image
		query, header string
		altitude      float64
		want          string
	}{
		{"low altitude routes to the low-band model", lowFrames[0], "", "", 50, "low"},
		{"band edge is inclusive", lowFrames[0], "", "", 150, "low"},
		{"above every band overflows to the unbounded model", highFrames[0], "", "", 10000, "high"},
		{"no altitude lands on the default (first) model", lowFrames[0], "", "", 0, "low"},
		{"explicit header overrides the altitude rule", highFrames[0], "", "high", 50, "high"},
		{"query parameter overrides the header", lowFrames[0], "low", "high", 10000, "low"},
	}
	for _, c := range cases {
		got, status, err := postRouted(ts, c.img, c.query, c.header, c.altitude)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if status != http.StatusOK {
			t.Fatalf("%s: status %d", c.name, status)
		}
		if got.Model != c.want {
			t.Errorf("%s: served by %q, want %q", c.name, got.Model, c.want)
		}
	}
}

// TestRoutedShutdownDrainsAllPools: one Close fences and drains every
// model's queue — requests racing the shutdown on either model resolve to
// 200 (admitted, drained) or 503, never hang, and both models reject with
// 503 afterwards.
func TestRoutedShutdownDrainsAllPools(t *testing.T) {
	srv, lowFrames, highFrames, _, _ := twoModelServer(t,
		serve.Config{MaxBatch: 4, QueueDepth: 16})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var wg sync.WaitGroup
	statuses := make(chan int, 16)
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, status, err := postRouted(ts, lowFrames[0], "low", "", 0)
			if err != nil {
				t.Error(err)
				return
			}
			statuses <- status
		}()
		go func() {
			defer wg.Done()
			_, status, err := postRouted(ts, highFrames[0], "high", "", 0)
			if err != nil {
				t.Error(err)
				return
			}
			statuses <- status
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
			t.Errorf("status %d during routed shutdown, want 200 or 503", s)
		}
	}

	for _, name := range []string{"low", "high"} {
		img := lowFrames[0]
		if name == "high" {
			img = highFrames[0]
		}
		_, status, err := postRouted(ts, img, name, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		if status != http.StatusServiceUnavailable {
			t.Errorf("post-shutdown request to %s got %d, want 503", name, status)
		}
	}
}

// TestRoutedObservability: /healthz lists every hosted model with its
// routing labels and /metrics nests per-model snapshots under the fleet
// aggregate.
func TestRoutedObservability(t *testing.T) {
	srv, lowFrames, highFrames, _, _ := twoModelServer(t, serve.Config{MaxBatch: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if _, status, err := postRouted(ts, lowFrames[0], "low", "", 0); err != nil || status != http.StatusOK {
		t.Fatalf("low request: status %d err %v", status, err)
	}
	if _, status, err := postRouted(ts, highFrames[0], "high", "", 0); err != nil || status != http.StatusOK {
		t.Fatalf("high request: status %d err %v", status, err)
	}

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var health struct {
		Status       string                    `json:"status"`
		DefaultModel string                    `json:"default_model"`
		Workers      int                       `json:"workers"`
		Models       map[string]map[string]any `json:"models"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.DefaultModel != "low" {
		t.Errorf("healthz status %q default %q", health.Status, health.DefaultModel)
	}
	if health.Workers != 2 {
		t.Errorf("healthz fleet workers = %d, want 2 (1 per pool)", health.Workers)
	}
	low, ok := health.Models["low"]
	if !ok {
		t.Fatalf("healthz models missing low: %v", health.Models)
	}
	if low["precision"] != "int8" || low["input"] != "64x64" || low["max_altitude_m"] != 150.0 {
		t.Errorf("low health labels wrong: %v", low)
	}
	if high := health.Models["high"]; high["precision"] != "fp32" || high["input"] != "96x96" {
		t.Errorf("high health labels wrong: %v", health.Models["high"])
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	var rep serve.MetricsReport
	if err := json.NewDecoder(mr.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 2 {
		t.Errorf("fleet completed = %d, want 2", rep.Completed)
	}
	if len(rep.Models) != 2 {
		t.Fatalf("per-model metrics for %d models, want 2: %v", len(rep.Models), rep.Models)
	}
	for _, name := range []string{"low", "high"} {
		st, ok := rep.Models[name]
		if !ok || st.Completed != 1 {
			t.Errorf("model %s metrics: ok=%v completed=%d, want 1", name, ok, st.Completed)
		}
	}
}

// healthTotals is the part of a /healthz document that is summed over the
// hosted pools: the top level carries the fleet totals, each per-model
// block its own pool's share.
type healthTotals struct {
	Workers        int   `json:"workers"`
	QueueCap       int   `json:"queue_cap"`
	WorkspaceBytes int64 `json:"workspace_bytes"`
}

// TestHealthzFleetSums: /healthz's top-level workers, workspace_bytes and
// queue_cap are the sums of its per-model blocks at rest after traffic and
// after every registry mutation (add, swap, remove) — the route table is
// the one registry both are read from. A duplicate, nameless or engineless
// add and a swap or remove of an unknown name are refused and change
// nothing.
func TestHealthzFleetSums(t *testing.T) {
	srv, lowFrames, highFrames, _, _ := twoModelServer(t, serve.Config{MaxBatch: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	check := func(stage string, wantWorkers int, wantModels ...string) {
		t.Helper()
		hr, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		var health struct {
			healthTotals
			Models map[string]healthTotals `json:"models"`
		}
		if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
			t.Fatal(err)
		}
		var sum healthTotals
		for _, m := range health.Models {
			sum.Workers += m.Workers
			sum.QueueCap += m.QueueCap
			sum.WorkspaceBytes += m.WorkspaceBytes
		}
		if health.healthTotals != sum {
			t.Errorf("%s: top-level totals %+v, want the per-model sums %+v", stage, health.healthTotals, sum)
		}
		if health.Workers != wantWorkers || health.WorkspaceBytes <= 0 {
			t.Errorf("%s: %d workers, %d workspace bytes; want %d workers and a warmed workspace",
				stage, health.Workers, health.WorkspaceBytes, wantWorkers)
		}
		if len(health.Models) != len(wantModels) {
			t.Errorf("%s: models %v, want %v", stage, health.Models, wantModels)
		}
		for _, name := range wantModels {
			if _, ok := health.Models[name]; !ok {
				t.Errorf("%s: models %v, missing %s", stage, health.Models, name)
			}
		}
	}

	for _, r := range []struct {
		name string
		img  *imgproc.Image
	}{{"low", lowFrames[0]}, {"high", highFrames[0]}} {
		if _, status, err := postRouted(ts, r.img, r.name, "", 0); err != nil || status != http.StatusOK {
			t.Fatalf("%s request: status %d err %v", r.name, status, err)
		}
	}
	check("after traffic", 2, "low", "high")

	net, _, err := models.Build(models.DroNet, 64, tensor.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	warm := serve.Config{MaxBatch: 2, QueueDepth: 5, Warm: true}
	if _, err := srv.AddModel(serve.ModelEntry{Name: "extra", Engine: newEngine(t, net, 2), Config: warm}); err != nil {
		t.Fatal(err)
	}
	check("after AddModel", 4, "low", "high", "extra")

	// Refused mutations leave the registry, and so the totals, as they were.
	if _, err := srv.AddModel(serve.ModelEntry{Name: "extra", Engine: newEngine(t, net, 1)}); !errors.Is(err, serve.ErrDuplicateModel) {
		t.Errorf("duplicate AddModel: %v, want ErrDuplicateModel", err)
	}
	if _, err := srv.AddModel(serve.ModelEntry{Engine: newEngine(t, net, 1)}); err == nil {
		t.Error("AddModel accepted an entry without a name")
	}
	if _, err := srv.AddModel(serve.ModelEntry{Name: "nil"}); err == nil {
		t.Error("AddModel accepted an entry without an engine")
	}
	if _, _, err := srv.SwapModel(serve.ModelEntry{Name: "absent", Engine: newEngine(t, net, 1)}); !errors.Is(err, serve.ErrUnknownModel) {
		t.Errorf("SwapModel(absent): %v, want ErrUnknownModel", err)
	}
	if err := srv.RemoveModel("absent"); !errors.Is(err, serve.ErrUnknownModel) {
		t.Errorf("RemoveModel(absent): %v, want ErrUnknownModel", err)
	}
	check("after refused mutations", 4, "low", "high", "extra")

	warm.QueueDepth = 7
	if _, _, err := srv.SwapModel(serve.ModelEntry{Name: "high", Engine: newEngine(t, net, 3), Config: warm}); err != nil {
		t.Fatal(err)
	}
	check("after SwapModel", 6, "low", "high", "extra")

	if err := srv.RemoveModel("low"); err != nil {
		t.Fatal(err)
	}
	check("after RemoveModel", 5, "high", "extra")
}

// TestParseModelSpecs covers the -models grammar.
func TestParseModelSpecs(t *testing.T) {
	specs, err := serve.ParseModelSpecs("low=dronet:96:int8:150, high=tinyyolonet:128:fp32")
	if err != nil {
		t.Fatal(err)
	}
	want := []serve.ModelSpec{
		{Name: "low", Model: "dronet", Size: 96, Precision: "int8", MaxAltitude: 150},
		{Name: "high", Model: "tinyyolonet", Size: 128, Precision: "fp32"},
	}
	if !reflect.DeepEqual(specs, want) {
		t.Errorf("parsed %+v, want %+v", specs, want)
	}
	if got := specs[0].String(); got != "low=dronet:96:int8:150" {
		t.Errorf("round-trip %q", got)
	}

	// Whitespace around any separator must not leak into the parsed fields —
	// a route name with a stray space would be registered but unroutable.
	spaced, err := serve.ParseModelSpecs("low = dronet : 96 : int8 : 150")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spaced, want[:1]) {
		t.Errorf("whitespace spec parsed as %+v, want %+v", spaced, want[:1])
	}

	bad := []string{
		"",
		"low=dronet:96",                     // missing precision
		"low=dronet:96:fp16",                // unknown precision
		"dronet:96:fp32",                    // missing name
		"low=dronet:zero:fp32",              // bad size
		"low=dronet:96:fp32:-5",             // bad altitude
		"a=dronet:96:fp32,a=dronet:96:fp32", // duplicate name
		"low=dronet:96:fp32:1:2:3",          // too many fields
		"low=:96:fp32",                      // empty architecture
		"low=dronet:96:fp32:",               // dangling altitude colon
		"low=dronet:96:fp32:NaN",            // NaN altitude
		"low=dronet:96:fp32:NaN:1",          // NaN altitude and a fifth field
		// No weight field: a fifth field and the empty "::" maxalt
		// placeholder are refused whatever they hold.
		"low=dronet:96:int8:150:2",
		"big=dronet:608:fp32::0.5",
		"low=dronet:96:fp32:100:0",
		"low=dronet:96:fp32:100:-1",
		"low=dronet:96:fp32::nope",
		"low=dronet:96:fp32::Inf",
		"h=dronet:96:fp32::degrade=l,l=dronet:64:int8",
	}
	for _, s := range bad {
		if _, err := serve.ParseModelSpecs(s); err == nil {
			t.Errorf("ParseModelSpecs(%q) accepted, want error", s)
		}
	}
	// A spec shaped like the old weighted form names the grammar in its
	// error, so an operator sees what the flag now takes.
	for _, s := range []string{"low=dronet:96:int8:150:2", "big=dronet:608:fp32::0.5"} {
		if _, err := serve.ParseModelSpecs(s); err == nil || !strings.Contains(err.Error(), "[:maxalt][:degrade=sibling]") {
			t.Errorf("ParseModelSpecs(%q) error %v, want it to name the grammar", s, err)
		}
	}
}
