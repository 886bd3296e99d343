package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/imgproc"
	"repro/internal/models"
	"repro/internal/network"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// swapHammerCycles is the lifecycle churn budget of TestSwapUnderTraffic:
// every cycle swaps the default model's weights, and every third cycle
// additionally adds or removes the altitude-band model.
const swapHammerCycles = 100

// buildNets constructs n distinct-weight DroNet instances at the given
// input size — the "weight versions" the swap hammer rotates through —
// along with each one's serial single-image oracle on the shared frames.
func buildNets(t *testing.T, n, size int, frames []*imgproc.Image) ([]*network.Network, [][][]serve.DetectionJSON) {
	t.Helper()
	nets := make([]*network.Network, n)
	oracles := make([][][]serve.DetectionJSON, n)
	for i := range nets {
		net, _, err := models.Build(models.DroNet, size, tensor.NewRNG(uint64(11+i)))
		if err != nil {
			t.Fatal(err)
		}
		nets[i] = net
		oracles[i] = singleImageWant(t, net, frames)
	}
	return nets, oracles
}

// TestSwapUnderTraffic is the headline lifecycle proof: 8 client goroutines
// hammer /detect while the registry performs 100 add/replace/remove cycles.
// Every response must be 200 or 429 (never a 5xx, never a 404 — half the
// clients ride the altitude route, which re-resolves as the band model
// comes and goes), every 200 must carry a known generation tag whose pool
// had not finished retiring when the request started, and its detections
// must be byte-identical to the serial oracle of whichever weight version
// that generation served.
func TestSwapUnderTraffic(t *testing.T) {
	const clients = 8
	frames := framesAt(64, 3, 99)
	nets, oracles := buildNets(t, 3, 64, frames)

	cfg := serve.Config{MaxBatch: 4, QueueDepth: 64}
	srv, err := serve.NewRouted([]serve.ModelEntry{
		{Name: "anchor", Engine: newEngine(t, nets[0], 1), Config: cfg},
		{Name: "band", Engine: newEngine(t, nets[1], 1), Config: cfg, MaxAltitude: 150},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Generation ledger: which weight version each generation serves, and
	// when each retired generation finished draining. Written only by the
	// mutator (this goroutine), read only after the clients have joined.
	genNet := make(map[uint64]int)
	retiredAt := make(map[uint64]time.Time)
	st, ok := srv.ModelStats("anchor")
	if !ok {
		t.Fatal("no stats for anchor")
	}
	genNet[st.Generation] = 0
	st, ok = srv.ModelStats("band")
	if !ok {
		t.Fatal("no stats for band")
	}
	genNet[st.Generation] = 1

	type obs struct {
		frame  int
		status int
		gen    uint64
		start  time.Time
		dets   []serve.DetectionJSON
	}
	var stop atomic.Bool
	results := make([][]obs, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Odd clients ride the altitude route (served by "band" while it
			// is hosted, by the default otherwise); even clients take the
			// default route straight to "anchor".
			altitude := 0.0
			if c%2 == 1 {
				altitude = 100
			}
			for i := 0; !stop.Load(); i++ {
				f := (c + i) % len(frames)
				start := time.Now()
				resp, code, err := postRouted(ts, frames[f], "", "", altitude)
				if err != nil {
					t.Errorf("client %d: transport error: %v", c, err)
					return
				}
				results[c] = append(results[c], obs{frame: f, status: code, gen: resp.Generation, start: start, dets: resp.Detections})
			}
		}(c)
	}

	bandHosted := true
	fleetBefore := srv.Stats().Received
	for cycle := 0; cycle < swapHammerCycles; cycle++ {
		// Pace the mutator: wait (briefly) until the fleet has admitted at
		// least one more request since the previous cycle, so lifecycle
		// churn genuinely interleaves with live traffic instead of
		// completing before the clients get a look in. The fleet counter
		// survives swaps (metrics objects are carried over), so it only
		// ever grows.
		for waited := 0; waited < 50; waited++ {
			if now := srv.Stats().Received; now > fleetBefore {
				fleetBefore = now
				break
			}
			time.Sleep(time.Millisecond)
		}
		k := cycle % len(nets)
		oldGen, newGen, err := srv.SwapModel(serve.ModelEntry{Name: "anchor", Engine: newEngine(t, nets[k], 1), Config: cfg})
		if err != nil {
			t.Fatalf("cycle %d: swap anchor: %v", cycle, err)
		}
		genNet[newGen] = k
		retiredAt[oldGen] = time.Now()
		if cycle%3 == 2 {
			if bandHosted {
				st, ok := srv.ModelStats("band")
				if !ok {
					t.Fatalf("cycle %d: band hosted but has no stats", cycle)
				}
				if err := srv.RemoveModel("band"); err != nil {
					t.Fatalf("cycle %d: remove band: %v", cycle, err)
				}
				retiredAt[st.Generation] = time.Now()
			} else {
				j := (cycle / 3) % len(nets)
				gen, err := srv.AddModel(serve.ModelEntry{Name: "band", Engine: newEngine(t, nets[j], 1), Config: cfg, MaxAltitude: 150})
				if err != nil {
					t.Fatalf("cycle %d: re-add band: %v", cycle, err)
				}
				genNet[gen] = j
			}
			bandHosted = !bandHosted
		}
	}
	stop.Store(true)
	wg.Wait()

	total, served, shed := 0, 0, 0
	for c, run := range results {
		for _, o := range run {
			total++
			switch o.status {
			case http.StatusOK:
				served++
				netIdx, known := genNet[o.gen]
				if !known {
					t.Fatalf("client %d: response carries unknown generation %d", c, o.gen)
				}
				if rt, retired := retiredAt[o.gen]; retired && o.start.After(rt) {
					t.Errorf("client %d: request started %s after generation %d had fully retired — a retired pool served it",
						c, o.start.Sub(rt), o.gen)
				}
				if !reflect.DeepEqual(o.dets, oracles[netIdx][o.frame]) {
					t.Errorf("client %d frame %d generation %d: detections diverge from that generation's serial oracle", c, o.frame, o.gen)
				}
			case http.StatusTooManyRequests:
				shed++
			default:
				t.Errorf("client %d: status %d (want 200 or 429, never a dropped or misrouted request)", c, o.status)
			}
		}
	}
	if served == 0 {
		t.Fatal("no request was served during the hammer — the test exercised nothing")
	}
	t.Logf("swap hammer: %d cycles, %d requests (%d served, %d shed), %d generations minted",
		swapHammerCycles, total, served, shed, len(genNet))
}

// testBuilder is a ModelBuilder for the admin-endpoint tests: fresh DroNet
// weights (seeded per size) behind a 1-worker engine.
func testBuilder(t *testing.T) serve.ModelBuilder {
	t.Helper()
	return func(spec serve.ModelSpec) (serve.ModelEntry, error) {
		net, _, err := models.Build(spec.Model, spec.Size, tensor.NewRNG(uint64(spec.Size)))
		if err != nil {
			return serve.ModelEntry{}, err
		}
		eng, err := engine.New(net, engine.Config{Workers: 1, Thresh: testThresh, NMSThresh: testNMS})
		if err != nil {
			return serve.ModelEntry{}, err
		}
		return serve.ModelEntry{
			Name:        spec.Name,
			Engine:      eng,
			Config:      serve.Config{MaxBatch: 2, Precision: spec.Precision},
			MaxAltitude: spec.MaxAltitude,
		}, nil
	}
}

// adminDo sends one admin request and decodes the JSON body into out (when
// non-nil), returning the status code.
func adminDo(t *testing.T, method, url string, body string, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode body: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// TestAdminEndpoints walks the lifecycle control surface end to end: list,
// add (and the duplicate 409), swap (generation advances; data plane serves
// the new pool), remove (explicit selection 404s afterwards), the
// last-model 409, and the unknown-model 404.
func TestAdminEndpoints(t *testing.T) {
	net, _, err := models.Build(models.DroNet, 64, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(newEngine(t, net, 1), serve.Config{MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.SetModelBuilder(testBuilder(t))
	admin := httptest.NewServer(srv.AdminHandler())
	defer admin.Close()
	data := httptest.NewServer(srv)
	defer data.Close()
	frame := framesAt(64, 1, 5)[0]

	var list struct {
		Models []struct {
			Name       string `json:"name"`
			Generation uint64 `json:"generation"`
			Default    bool   `json:"default"`
		} `json:"models"`
	}
	if code := adminDo(t, http.MethodGet, admin.URL+"/admin/models", "", &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if len(list.Models) != 1 || list.Models[0].Name != "default" || !list.Models[0].Default {
		t.Fatalf("initial list = %+v, want the single default model", list.Models)
	}

	var added struct {
		Name       string `json:"name"`
		Generation uint64 `json:"generation"`
	}
	addBody := `{"spec": "band=dronet:64:fp32:150"}`
	if code := adminDo(t, http.MethodPost, admin.URL+"/admin/models", addBody, &added); code != http.StatusCreated {
		t.Fatalf("add: status %d", code)
	}
	if added.Name != "band" || added.Generation == 0 {
		t.Fatalf("add returned %+v", added)
	}
	if code := adminDo(t, http.MethodPost, admin.URL+"/admin/models", addBody, nil); code != http.StatusConflict {
		t.Errorf("duplicate add: status %d, want 409", code)
	}
	if code := adminDo(t, http.MethodPost, admin.URL+"/admin/models", `{"spec": "x=dronet:64"}`, nil); code != http.StatusBadRequest {
		t.Errorf("malformed spec: status %d, want 400", code)
	}

	// The hot-added model serves explicit selections, tagged with its
	// generation.
	resp, code, err := postRouted(data, frame, "band", "", 0)
	if err != nil || code != http.StatusOK {
		t.Fatalf("detect on added model: code=%d err=%v", code, err)
	}
	if resp.Model != "band" || resp.Generation != added.Generation {
		t.Fatalf("added model response: model=%q gen=%d, want band gen %d", resp.Model, resp.Generation, added.Generation)
	}

	var swapped struct {
		Name          string `json:"name"`
		Generation    uint64 `json:"generation"`
		OldGeneration uint64 `json:"old_generation"`
	}
	// The PUT body may omit the "name=" prefix — the path names the route.
	if code := adminDo(t, http.MethodPut, admin.URL+"/admin/models/band", `{"spec": "dronet:64:fp32:150"}`, &swapped); code != http.StatusOK {
		t.Fatalf("swap: status %d", code)
	}
	if swapped.OldGeneration != added.Generation || swapped.Generation <= swapped.OldGeneration {
		t.Fatalf("swap generations: %+v (added gen %d)", swapped, added.Generation)
	}
	if code := adminDo(t, http.MethodPut, admin.URL+"/admin/models/band", `{"spec": "other=dronet:64:fp32"}`, nil); code != http.StatusBadRequest {
		t.Errorf("swap with mismatched spec name: status %d, want 400", code)
	}
	resp, code, err = postRouted(data, frame, "band", "", 0)
	if err != nil || code != http.StatusOK {
		t.Fatalf("detect after swap: code=%d err=%v", code, err)
	}
	if resp.Generation != swapped.Generation {
		t.Fatalf("post-swap response generation %d, want %d", resp.Generation, swapped.Generation)
	}

	if code := adminDo(t, http.MethodDelete, admin.URL+"/admin/models/band", "", nil); code != http.StatusOK {
		t.Fatalf("remove: status %d", code)
	}
	if _, code, _ = postRouted(data, frame, "band", "", 0); code != http.StatusNotFound {
		t.Errorf("explicit selection of removed model: status %d, want 404", code)
	}
	if code := adminDo(t, http.MethodDelete, admin.URL+"/admin/models/band", "", nil); code != http.StatusNotFound {
		t.Errorf("remove unknown: status %d, want 404", code)
	}
	if code := adminDo(t, http.MethodDelete, admin.URL+"/admin/models/default", "", nil); code != http.StatusConflict {
		t.Errorf("remove last model: status %d, want 409", code)
	}
}

// TestBurstStaysOnItsPool drives one 1-worker pool with an 8-client burst
// while a second pool sits idle: every answer from the backlogged pool
// must match its serial oracle, and the neighbouring pool must keep
// answering mid-burst — each model runs on its own workers, so a backlog
// on one never delays the other.
func TestBurstStaysOnItsPool(t *testing.T) {
	frames := framesAt(64, 3, 44)
	nets, oracles := buildNets(t, 2, 64, frames)
	cfg := serve.Config{MaxBatch: 2, QueueDepth: 64}
	srv, err := serve.NewRouted([]serve.ModelEntry{
		{Name: "busy", Engine: newEngine(t, nets[0], 1), Config: cfg},
		{Name: "idle", Engine: newEngine(t, nets[1], 1), Config: cfg},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				f := (c + i) % len(frames)
				resp, code, err := postRouted(ts, frames[f], "busy", "", 0)
				if err != nil {
					t.Errorf("busy client: %v", err)
					return
				}
				if code == http.StatusTooManyRequests {
					continue
				}
				if code != http.StatusOK {
					t.Errorf("busy client: status %d", code)
					return
				}
				if !reflect.DeepEqual(resp.Detections, oracles[0][f]) {
					t.Errorf("burst response diverges from the serial oracle on frame %d", f)
				}
			}
		}(c)
	}
	// The neighbour keeps serving its own traffic mid-burst.
	resp, code, err := postRouted(ts, frames[0], "idle", "", 0)
	if err != nil || code != http.StatusOK {
		t.Errorf("neighbouring pool: code=%d err=%v", code, err)
	} else if !reflect.DeepEqual(resp.Detections, oracles[1][0]) {
		t.Errorf("neighbouring pool's response diverges from its serial oracle")
	}
	wg.Wait()
}

// pr5Report is a FROZEN copy of the /metrics wire schema exactly as PR 5
// shipped it — the contract existing scrapers compiled against. Do not add
// this PR's new fields here: the point of TestMetricsWireGolden is that a
// PR 5 scraper keeps decoding the document unchanged while the lifecycle
// fields ride alongside.
type pr5Report struct {
	pr5Stats
	Models map[string]pr5Stats `json:"models"`
}

type pr5Stats struct {
	UptimeSeconds float64     `json:"uptime_s"`
	Model         string      `json:"model,omitempty"`
	Precision     string      `json:"precision"`
	MaxAltitude   float64     `json:"max_altitude_m,omitempty"`
	Received      uint64      `json:"received"`
	Rejected      uint64      `json:"rejected"`
	Completed     uint64      `json:"completed"`
	Failed        uint64      `json:"failed"`
	QueueDepth    int         `json:"queue_depth"`
	QueueCap      int         `json:"queue_cap"`
	Workers       int         `json:"workers"`
	MaxBatch      int         `json:"max_batch"`
	Batches       int         `json:"batches"`
	MeanBatchSize float64     `json:"mean_batch_size"`
	BatchHist     map[int]int `json:"batch_hist"`
	LatencyP50Ms  float64     `json:"latency_p50_ms"`
	LatencyP99Ms  float64     `json:"latency_p99_ms"`
	LatencyMeanMs float64     `json:"latency_mean_ms"`
	LatencyMaxMs  float64     `json:"latency_max_ms"`
	BusySeconds   float64     `json:"busy_s"`
	AggregateFPS  float64     `json:"aggregate_fps"`
}

// TestMetricsWireGolden decodes a live /metrics document into the frozen
// PR 5 scraper struct and cross-checks every counter against the current
// Report() — lifecycle work must extend the wire format, never break it.
func TestMetricsWireGolden(t *testing.T) {
	srv, lowFrames, _, _, _ := twoModelServer(t, serve.Config{MaxBatch: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for i := 0; i < 3; i++ {
		if _, code, err := postRouted(ts, lowFrames[0], "low", "", 0); err != nil || code != http.StatusOK {
			t.Fatalf("traffic: code=%d err=%v", code, err)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var old pr5Report
	if err := json.NewDecoder(resp.Body).Decode(&old); err != nil {
		t.Fatalf("PR 5 scraper failed to decode /metrics: %v", err)
	}
	now := srv.Report()
	if old.Received != now.Received || old.Completed != now.Completed || old.Rejected != now.Rejected {
		t.Errorf("flattened fleet counters drifted: scraper %+v vs report %+v", old.pr5Stats, now.Stats)
	}
	if old.Precision != now.Precision {
		t.Errorf("precision label: scraper %q vs report %q", old.Precision, now.Precision)
	}
	if len(old.Models) != len(now.Models) {
		t.Fatalf("models map: scraper sees %d entries, report has %d", len(old.Models), len(now.Models))
	}
	for name, want := range now.Models {
		got, ok := old.Models[name]
		if !ok {
			t.Errorf("model %q missing from the scraper's view", name)
			continue
		}
		if got.Model != want.Model || got.Completed != want.Completed || got.Precision != want.Precision ||
			got.MaxAltitude != want.MaxAltitude || got.Workers != want.Workers {
			t.Errorf("model %q: scraper decoded %+v, report says %+v", name, got, want)
		}
	}
	if old.Models["low"].Completed != 3 {
		t.Errorf("low completed = %d via the scraper, want 3", old.Models["low"].Completed)
	}
}
