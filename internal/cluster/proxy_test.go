package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/imgproc"
	"repro/internal/models"
	"repro/internal/pipeline"
	"repro/internal/serve"
	"repro/internal/tensor"
)

const (
	testThresh = 0.1
	testNMS    = 0.45
)

// realShard boots one in-process serve.Server (a tiny random-weight DroNet)
// with the given shard id stamped, fronted by an httptest listener, and
// returns its base host:port. Each seed gives distinct weights, so two
// shards answer the same frame differently — which is exactly what makes
// routing mistakes visible in tests.
func realShard(t *testing.T, id string, seed uint64) (addr string, srv *serve.Server) {
	t.Helper()
	net, _, err := models.Build(models.DroNet, 64, tensor.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(net, engine.Config{Workers: 1, Thresh: testThresh, NMSThresh: testNMS})
	if err != nil {
		t.Fatal(err)
	}
	srv, err = serve.New(eng, serve.Config{MaxBatch: 2, QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	addr = strings.TrimPrefix(ts.URL, "http://")
	srv.SetIdentity(id, addr)
	return addr, srv
}

func testFrames(size, k int, seed uint64) []*imgproc.Image {
	cfg := dataset.DefaultConfig(size)
	cfg.VehiclesMin, cfg.VehiclesMax = 1, 3
	cam := pipeline.NewSimCamera(cfg, k, seed)
	var frames []*imgproc.Image
	for {
		f, ok := cam.Next()
		if !ok {
			return frames
		}
		frames = append(frames, f.Image)
	}
}

func frameBody(t testing.TB, img *imgproc.Image) []byte {
	t.Helper()
	body, err := json.Marshal(serve.DetectRequest{Width: img.W, Height: img.H, Pixels: img.Pix})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// postVia posts one frame through a handler and returns status, the
// X-Dronet-Shard header and the raw body.
func postVia(t *testing.T, base, path string, body []byte, header http.Header) (int, string, []byte) {
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
	return resp.StatusCode, resp.Header.Get("X-Dronet-Shard"), raw
}

// TestProxyCameraAffinity pins the routing contract end to end against two
// real shards: every request for one camera lands on one shard (stable
// X-Dronet-Shard across repeats and across the ?camera= / X-Camera-ID
// spellings), the proxied bytes are identical to asking that shard
// directly, and with enough cameras both shards see traffic.
func TestProxyCameraAffinity(t *testing.T) {
	addr0, _ := realShard(t, "shard0", 1)
	addr1, _ := realShard(t, "shard1", 2)
	p, err := cluster.NewProxy(cluster.ProxyConfig{Shards: []string{addr0, addr1}, HealthInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	ts := httptest.NewServer(p)
	t.Cleanup(ts.Close)

	frames := testFrames(64, 2, 7)
	body := frameBody(t, frames[0])
	owners := make(map[string]string)
	hit := make(map[string]int)
	for cam := 0; cam < 12; cam++ {
		id := fmt.Sprintf("cam-%d", cam)
		var prev string
		for rep := 0; rep < 3; rep++ {
			path := "/detect?camera=" + id
			var hdr http.Header
			if rep == 2 { // third repeat routes by header instead of query
				path = "/detect"
				hdr = http.Header{"X-Camera-ID": []string{id}}
			}
			code, shard, raw := postVia(t, ts.URL, path, body, hdr)
			if code != http.StatusOK {
				t.Fatalf("camera %s rep %d: status %d: %s", id, rep, code, raw)
			}
			if shard == "" {
				t.Fatalf("camera %s: response missing X-Dronet-Shard", id)
			}
			if rep > 0 && shard != prev {
				t.Fatalf("camera %s flapped shards %s -> %s", id, prev, shard)
			}
			prev = shard
		}
		owners[id] = prev
		hit[prev]++
	}
	if len(hit) != 2 {
		t.Fatalf("12 cameras all landed on one shard: %v", hit)
	}

	// Identical detections to the owning shard's direct answer: the proxy
	// adds routing, never rewrites payloads. (batch_size/latency_ms vary
	// per request by design; the detections may not.)
	for id, shard := range owners {
		direct := addr0
		if shard == "shard1" {
			direct = addr1
		}
		_, _, wantRaw := postVia(t, "http://"+direct, "/detect", body, nil)
		code, _, gotRaw := postVia(t, ts.URL, "/detect?camera="+id, body, nil)
		var want, got serve.DetectResponse
		if err := json.Unmarshal(wantRaw, &want); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(gotRaw, &got); err != nil {
			t.Fatal(err)
		}
		if code != http.StatusOK || !reflect.DeepEqual(got.Detections, want.Detections) {
			t.Fatalf("camera %s: proxied detections differ from owner %s's direct detections", id, shard)
		}
	}
}

// echoShard is a fake shard recording what reaches it: it answers /detect
// with the model/camera/altitude routing inputs it saw, /healthz as a
// healthy process, and lets tests force failures.
type echoShard struct {
	id       string
	unhealty atomic.Bool
	status   atomic.Int64 // forced /detect status (0 = echo 200)
}

func (e *echoShard) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if e.unhealty.Load() {
			http.Error(w, "sick", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"status":"ok","shard_id":%q}`, e.id)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if s := e.status.Load(); s != 0 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "forced", int(s))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"shard":%q,"path":%q,"model_q":%q,"model_h":%q,"camera_q":%q,"altitude_q":%q,"deadline_h":%q}`,
			e.id, r.URL.Path, r.URL.Query().Get("model"), r.Header.Get("X-Model"),
			r.URL.Query().Get("camera"), r.URL.Query().Get("altitude"),
			r.Header.Get(serve.DeadlineHeader))
	})
	return mux
}

// spawnEcho boots an echoShard and returns it with its address.
func spawnEcho(t *testing.T, id string) (*echoShard, string) {
	t.Helper()
	e := &echoShard{id: id}
	ts := httptest.NewServer(e.handler())
	t.Cleanup(ts.Close)
	return e, strings.TrimPrefix(ts.URL, "http://")
}

// TestProxyForwardingPreservesSemantics asserts the proxy forwards the
// model selector (both spellings), the altitude query and the path
// untouched, and propagates a shard's own 429 verbatim.
func TestProxyForwardingPreservesSemantics(t *testing.T) {
	e0, addr0 := spawnEcho(t, "echo0")
	_, addr1 := spawnEcho(t, "echo1")
	p, err := cluster.NewProxy(cluster.ProxyConfig{Shards: []string{addr0, addr1}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	ts := httptest.NewServer(p)
	t.Cleanup(ts.Close)
	// Responses name a shard by address until its first health probe has
	// read its id; the comparison below needs the ids.
	waitHealth(t, ts.URL, "every shard probed", func(h chaosHealth) bool {
		return h.Shards[addr0].ShardID == "echo0" && h.Shards[addr1].ShardID == "echo1"
	})

	var echo struct {
		Shard     string `json:"shard"`
		Path      string `json:"path"`
		ModelQ    string `json:"model_q"`
		ModelH    string `json:"model_h"`
		CameraQ   string `json:"camera_q"`
		AltitudeQ string `json:"altitude_q"`
	}
	code, shard, raw := postVia(t, ts.URL, "/detect?camera=c1&model=high&altitude=120", []byte("{}"), nil)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if err := json.Unmarshal(raw, &echo); err != nil {
		t.Fatal(err)
	}
	if echo.ModelQ != "high" || echo.CameraQ != "c1" || echo.AltitudeQ != "120" || echo.Path != "/detect" {
		t.Fatalf("forwarded request mangled: %+v", echo)
	}
	if echo.Shard != shard {
		t.Fatalf("X-Dronet-Shard %q but shard %q answered", shard, echo.Shard)
	}

	code, _, raw = postVia(t, ts.URL, "/detect/raw?camera=c1", []byte("png"), http.Header{"X-Model": []string{"low"}})
	if code != http.StatusOK {
		t.Fatalf("raw status %d: %s", code, raw)
	}
	if err := json.Unmarshal(raw, &echo); err != nil {
		t.Fatal(err)
	}
	if echo.ModelH != "low" || echo.Path != "/detect/raw" {
		t.Fatalf("raw forward mangled: %+v", echo)
	}

	// A shard's own backpressure is the client's backpressure.
	e0.status.Store(http.StatusTooManyRequests)
	defer e0.status.Store(0)
	saw429 := false
	for cam := 0; cam < 20 && !saw429; cam++ {
		code, shard, _ := postVia(t, ts.URL, fmt.Sprintf("/detect?camera=spill-%d", cam), []byte("{}"), nil)
		switch code {
		case http.StatusOK:
			if shard == "echo0" {
				t.Fatal("echo0 answered 200 while forced to 429")
			}
		case http.StatusTooManyRequests:
			if shard != "echo0" {
				t.Fatalf("429 attributed to %q", shard)
			}
			saw429 = true
		default:
			t.Fatalf("unexpected status %d", code)
		}
	}
	if !saw429 {
		t.Fatal("no camera hashed to the 429ing shard in 20 tries")
	}
}

// TestProxyEjectionFailoverReadmission drives the health lifecycle: a shard
// that stops answering /healthz is ejected (its cameras fail over to the
// survivor), and starts owning traffic again after it recovers.
func TestProxyEjectionFailoverReadmission(t *testing.T) {
	e0, addr0 := spawnEcho(t, "echo0")
	_, addr1 := spawnEcho(t, "echo1")
	p, err := cluster.NewProxy(cluster.ProxyConfig{
		Shards:         []string{addr0, addr1},
		HealthInterval: 20 * time.Millisecond,
		FailThreshold:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	ts := httptest.NewServer(p)
	t.Cleanup(ts.Close)

	// Find a camera owned by echo0.
	cam := ""
	for i := 0; i < 64 && cam == ""; i++ {
		id := fmt.Sprintf("eject-%d", i)
		if _, shard, _ := postVia(t, ts.URL, "/detect?camera="+id, []byte("{}"), nil); shard == "echo0" {
			cam = id
		}
	}
	if cam == "" {
		t.Fatal("no camera owned by echo0 in 64 tries")
	}

	e0.unhealty.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	ejected := false
	for !ejected && time.Now().Before(deadline) {
		code, shard, _ := postVia(t, ts.URL, "/detect?camera="+cam, []byte("{}"), nil)
		if code != http.StatusOK {
			t.Fatalf("fail-over camera got status %d", code)
		}
		ejected = shard == "echo1"
		time.Sleep(10 * time.Millisecond)
	}
	if !ejected {
		t.Fatal("camera never failed over after its owner went unhealthy")
	}

	var health struct {
		Status string `json:"status"`
		Live   int    `json:"live_shards"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Status != "degraded" || health.Live != 1 {
		t.Fatalf("proxy healthz during ejection: %+v", health)
	}

	e0.unhealty.Store(false)
	readmitted := false
	for !readmitted && time.Now().Before(deadline) {
		code, shard, _ := postVia(t, ts.URL, "/detect?camera="+cam, []byte("{}"), nil)
		if code != http.StatusOK {
			t.Fatalf("re-admission camera got status %d", code)
		}
		readmitted = shard == "echo0"
		time.Sleep(10 * time.Millisecond)
	}
	if !readmitted {
		t.Fatal("recovered shard never re-admitted")
	}
}

// TestProxyNoLiveShard503 pins the fleet-down contract: every shard
// unreachable means a 503 /healthz reporting no live shard, then 503 with
// "no live shard" on the data plane, not hangs or 502-ish noise. /healthz
// is polled first because a POST can get its 503 from trying both dead
// shards before any breaker has opened, while /healthz still says 200.
func TestProxyNoLiveShard503(t *testing.T) {
	// Grab two real listeners' addresses, then close them: valid but dead.
	dead := make([]string, 2)
	for i := range dead {
		ts := httptest.NewServer(http.NotFoundHandler())
		dead[i] = strings.TrimPrefix(ts.URL, "http://")
		ts.Close()
	}
	p, err := cluster.NewProxy(cluster.ProxyConfig{Shards: dead, HealthInterval: 10 * time.Millisecond, FailThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	ts := httptest.NewServer(p)
	t.Cleanup(ts.Close)

	fleetDown := func() bool {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var health struct {
			Live int `json:"live_shards"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
			t.Fatalf("/healthz: %v", err)
		}
		return resp.StatusCode == http.StatusServiceUnavailable && health.Live == 0
	}
	for deadline := time.Now().Add(5 * time.Second); !fleetDown(); {
		if time.Now().After(deadline) {
			t.Fatal("/healthz never reported 503 with live_shards 0 with every shard dead")
		}
		runtime.Gosched()
	}
	code, _, raw := postVia(t, ts.URL, "/detect?camera=c", []byte("{}"), nil)
	var body struct {
		Error string `json:"error"`
	}
	if code != http.StatusServiceUnavailable || json.Unmarshal(raw, &body) != nil || body.Error != "no live shard (fleet 2, live 0)" {
		t.Fatalf("fleet-down POST: status %d, body %s; want 503 {\"error\": \"no live shard (fleet 2, live 0)\"}", code, raw)
	}
}

// TestFleetMetricsRollup scrapes two real shards through the proxy and
// checks the fleet document: per-shard blocks carry their identity and
// scraped metrics, the flattened rollup sums the shards' counters, and its
// latency histogram is the sum of theirs with p50/p99 read from that sum.
func TestFleetMetricsRollup(t *testing.T) {
	addr0, _ := realShard(t, "shard0", 1)
	addr1, _ := realShard(t, "shard1", 2)
	p, err := cluster.NewProxy(cluster.ProxyConfig{Shards: []string{addr0, addr1}, HealthInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	ts := httptest.NewServer(p)
	t.Cleanup(ts.Close)

	frames := testFrames(64, 1, 9)
	body := frameBody(t, frames[0])
	total := 0
	for cam := 0; cam < 10; cam++ {
		code, _, raw := postVia(t, ts.URL, fmt.Sprintf("/detect?camera=roll-%d", cam), body, nil)
		if code != http.StatusOK {
			t.Fatalf("camera roll-%d: status %d: %s", cam, code, raw)
		}
		total++
	}

	var rep cluster.FleetReport
	getJSON(t, ts.URL+"/metrics", &rep)
	if rep.TotalShards != 2 || rep.LiveShards != 2 {
		t.Fatalf("fleet shape: %d/%d live", rep.LiveShards, rep.TotalShards)
	}
	var sumCompleted, sumForwarded uint64
	sumHist := map[int]int{}
	for addr, sm := range rep.Shards {
		if sm.Metrics == nil {
			t.Fatalf("shard %s: no scraped metrics", addr)
		}
		if sm.ShardID != "shard0" && sm.ShardID != "shard1" {
			t.Fatalf("shard %s: unlearned id %q", addr, sm.ShardID)
		}
		if sm.Metrics.Stats.ShardID != sm.ShardID {
			t.Fatalf("scraped stats identity %q != learned %q", sm.Metrics.Stats.ShardID, sm.ShardID)
		}
		sumCompleted += sm.Metrics.Stats.Completed
		sumForwarded += sm.ForwardedTotal
		for us, k := range sm.Metrics.Stats.LatencyHist {
			sumHist[us] += k
		}
	}
	if !reflect.DeepEqual(rep.Stats.LatencyHist, sumHist) {
		t.Fatalf("rollup latency_hist_us %v, want the shards' sum %v", rep.Stats.LatencyHist, sumHist)
	}
	if p50, p99 := histQuantileMs(sumHist, 0.50), histQuantileMs(sumHist, 0.99); rep.Stats.LatencyP50Ms != p50 || rep.Stats.LatencyP99Ms != p99 || p50 == 0 {
		t.Fatalf("rollup p50/p99 %v/%v ms, want %v/%v from the summed buckets", rep.Stats.LatencyP50Ms, rep.Stats.LatencyP99Ms, p50, p99)
	}
	if sumForwarded != uint64(total) {
		t.Fatalf("forwarded_total sums to %d, proxied %d", sumForwarded, total)
	}
	if rep.Stats.Completed != sumCompleted || rep.Stats.Completed == 0 {
		t.Fatalf("rollup completed %d, shards sum %d", rep.Stats.Completed, sumCompleted)
	}
	if rep.ProxyReceivedTotal < uint64(total) {
		t.Fatalf("proxy_received_total %d < %d", rep.ProxyReceivedTotal, total)
	}
	if rep.Stats.ShardID != "" {
		t.Fatalf("rollup carries a per-process shard_id %q", rep.Stats.ShardID)
	}
}

// histQuantileMs reads the nearest-rank p-quantile (rank round(p·n),
// clamped to [1, n]) off a sparse latency histogram keyed by bucket upper
// bounds in µs, in milliseconds.
func histQuantileMs(hist map[int]int, p float64) float64 {
	bounds, n := make([]int, 0, len(hist)), 0
	for us, k := range hist {
		bounds = append(bounds, us)
		n += k
	}
	sort.Ints(bounds)
	rank := min(max(int(p*float64(n)+0.5), 1), n)
	for _, us := range bounds {
		if rank -= hist[us]; rank <= 0 {
			return float64(us) / 1e3
		}
	}
	return 0
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}
