// Command serveclient is the walkthrough client for the detection service
// (internal/serve, cmd/dronet-serve) and the driver behind `make
// serve-smoke`: it boots a dronet-serve binary on a random loopback port
// (or talks to an existing server via -url), exercises every endpoint —
// JSON detect, raw PNG detect, /healthz, /metrics — validates the
// responses, and asks the server to drain and exit. With -precision int8
// the spawned server quantizes at startup and the client asserts the
// precision label on /healthz, smoke-testing the whole quantized path.
//
// With -models the spawned server hosts a routed registry
// (name=model:size:precision[:maxalt][:weight] entries) and the client
// walks the routing matrix instead: explicit ?model= and X-Model
// selection, the altitude default route, the 404 on an unknown model, and
// the per-model blocks on /healthz and /metrics.
//
// With -swap (the driver behind `make swap-smoke`) the spawned server
// additionally binds its admin listener and the client exercises the live
// model lifecycle under background traffic: hot-add a model, serve from
// it, atomically swap its weights (the response generation must advance),
// swap the primary model while requests are in flight, then remove the
// added model — all without a single non-2xx/429 data-plane response.
//
// With -sharded (the driver behind `make shard-smoke`) the client spawns
// two shard servers plus a dronet-proxy (-proxy) and walks the sharded
// tier: camera affinity via ?camera= and X-Camera-ID, fleet /metrics
// aggregation with shard identity labels, then kill -9 of one shard under
// traffic — every response must be 200/429/503, the proxy must eject the
// victim, and its cameras must fail over to the survivor.
//
// Usage:
//
//	go build -o bin/dronet-serve ./cmd/dronet-serve
//	go run ./examples/serveclient -server bin/dronet-serve
//	go run ./examples/serveclient -server bin/dronet-serve \
//	    -models "low=dronet:64:int8:150,high=dronet:96:fp32"
//	go run ./examples/serveclient -server bin/dronet-serve -size 64 -swap
//
// or against a running server:
//
//	go run ./examples/serveclient -url http://localhost:8080
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"image/png"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/imgproc"
	"repro/internal/pipeline"
	"repro/internal/serve"
)

// drainTimeout bounds how long a SIGTERMed process may take to exit.
const drainTimeout = 30 * time.Second

// children are the processes this program spawned. Every failure goes
// through fatal, which stops them before exiting, so a failed walk leaves
// no server running.
var children cluster.Children

// fatal logs v, drains (or kills) every spawned process and exits 1.
func fatal(v ...any) {
	log.Print(v...)
	children.Stop(drainTimeout)
	os.Exit(1)
}

// fatalf is fatal with a format.
func fatalf(format string, args ...any) {
	fatal(fmt.Sprintf(format, args...))
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("serveclient: ")
	defer children.Stop(drainTimeout) // a panic in main stops them too
	url := flag.String("url", "", "base URL of a running dronet-serve (skips spawning)")
	server := flag.String("server", "", "path to a dronet-serve binary to spawn on a random port")
	size := flag.Int("size", 96, "frame size to send (and model input when spawning)")
	frames := flag.Int("frames", 4, "number of JSON frames to send")
	precision := flag.String("precision", "fp32", "server precision to spawn (fp32 or int8)")
	modelsFlag := flag.String("models", "", "spawn a routed multi-model server with this -models spec and walk the routing matrix")
	swapFlag := flag.Bool("swap", false, "exercise the live model lifecycle (hot add/swap/remove under traffic) via the spawned server's admin listener")
	shardedFlag := flag.Bool("sharded", false, "exercise the sharded tier: spawn two shard servers plus a dronet-proxy and walk affinity, fleet metrics and kill -9 failover")
	proxyBin := flag.String("proxy", "", "path to a dronet-proxy binary (required with -sharded)")
	flag.Parse()

	if *shardedFlag {
		if *server == "" || *proxyBin == "" {
			fatal("-sharded needs -server and -proxy (it spawns the shard fleet and the proxy)")
		}
		shardedWalk(*server, *proxyBin, *size, *precision)
		fmt.Println("OK")
		return
	}

	if *swapFlag {
		if *server == "" {
			fatal("-swap needs -server (it drives the spawned server's admin listener)")
		}
		spec := *modelsFlag
		if spec == "" {
			spec = fmt.Sprintf("default=dronet:%d:%s", *size, *precision)
		}
		p, err := children.Spawn(*server, append(serverArgs(*size, *precision, spec), "-admin", "127.0.0.1:0"), true)
		if err != nil {
			fatal(err)
		}
		swapWalk("http://"+p.Addr, "http://"+p.AdminAddr, spec)
		if err := p.Drain(drainTimeout); err != nil {
			fatalf("server exit: %v", err)
		}
		fmt.Println("server drained and exited cleanly")
		fmt.Println("OK")
		return
	}

	var p *cluster.Process
	if *url == "" {
		if *server == "" {
			fatal("need -url or -server")
		}
		var err error
		if p, err = children.Spawn(*server, serverArgs(*size, *precision, *modelsFlag), false); err != nil {
			fatal(err)
		}
		*url = "http://" + p.Addr
	}

	if *modelsFlag != "" {
		if p == nil {
			fatal("-models needs -server (it validates the spawned registry)")
		}
		walkRouted(*url, *modelsFlag)
		if err := p.Drain(drainTimeout); err != nil {
			fatalf("server exit: %v", err)
		}
		fmt.Println("server drained and exited cleanly")
		fmt.Println("OK")
		return
	}

	cam := pipeline.NewSimCamera(dataset.DefaultConfig(*size), *frames, 42)

	// 1. JSON endpoint: planar float pixels.
	total := 0
	for i := 0; i < *frames; i++ {
		f, ok := cam.Next()
		if !ok {
			break
		}
		resp := postJSON(*url, f.Image, f.Altitude)
		total += len(resp.Detections)
		fmt.Printf("frame %d: %d detections (batch %d, %.1f ms)\n",
			i, len(resp.Detections), resp.BatchSize, resp.LatencyMs)
	}
	fmt.Printf("JSON endpoint: %d detections over %d frames\n", total, *frames)

	// 2. Raw endpoint: the same scene as a PNG body.
	pngCam := pipeline.NewSimCamera(dataset.DefaultConfig(*size), 1, 43)
	f, _ := pngCam.Next()
	var buf bytes.Buffer
	if err := png.Encode(&buf, f.Image.ToNRGBA()); err != nil {
		fatal(err)
	}
	raw := post(*url+fmt.Sprintf("/detect/raw?altitude=%.1f", f.Altitude), "image/png", buf.Bytes())
	fmt.Printf("raw PNG endpoint: %d detections (batch %d)\n", len(raw.Detections), raw.BatchSize)

	// 3. Health and metrics (both label the active precision).
	var health map[string]any
	getJSON(*url+"/healthz", &health)
	if health["status"] != "ok" {
		fatalf("healthz: %v", health)
	}
	if p != nil && health["precision"] != *precision {
		fatalf("healthz precision = %v, want %v", health["precision"], *precision)
	}
	var stats serve.Stats
	getJSON(*url+"/metrics", &stats)
	fmt.Printf("metrics: %d completed, mean batch %.2f, p50 %.2f ms, p99 %.2f ms, %.1f FPS aggregate\n",
		stats.Completed, stats.MeanBatchSize, stats.LatencyP50Ms, stats.LatencyP99Ms, stats.AggregateFPS)
	if stats.Completed == 0 {
		fatal("metrics report zero completed requests")
	}

	// 4. Graceful drain when we own the server process.
	if p != nil {
		if err := p.Drain(drainTimeout); err != nil {
			fatalf("server exit: %v", err)
		}
		fmt.Println("server drained and exited cleanly")
	}
	fmt.Println("OK")
}

// walkRouted validates a routed spawn end to end: per-model explicit
// selection by query and header (the response must name the serving
// model), altitude-band default routing, the unknown-model 404, and the
// per-model blocks of /healthz and /metrics.
func walkRouted(url, spec string) {
	specs, err := serve.ParseModelSpecs(spec)
	if err != nil {
		fatal(err)
	}

	// Per-model explicit routing, alternating query and header selection.
	for i, sp := range specs {
		cam := pipeline.NewSimCamera(dataset.DefaultConfig(sp.Size), 2, uint64(50+i))
		for j := 0; ; j++ {
			f, ok := cam.Next()
			if !ok {
				break
			}
			target := url + "/detect?model=" + sp.Name
			var header http.Header
			if j%2 == 1 {
				target = url + "/detect"
				header = http.Header{"X-Model": []string{sp.Name}}
			}
			resp := postWithHeader(target, "application/json", marshalFrame(f.Image, 0), header)
			if resp.Model != sp.Name {
				fatalf("request for %s served by %q", sp.Name, resp.Model)
			}
			fmt.Printf("model %s frame %d: %d detections (batch %d)\n", sp.Name, j, len(resp.Detections), resp.BatchSize)
		}
	}

	// Altitude default route: probe the interior of every bounded band —
	// between the previous band's ceiling and this one's — and expect that
	// band's model, without naming it. (A band's floor is the next-lower
	// ceiling, so probing MaxAltitude/2 would land in a LOWER band whenever
	// two bounded bands are configured.)
	bounded := make([]serve.ModelSpec, 0, len(specs))
	for _, sp := range specs {
		if sp.MaxAltitude > 0 {
			bounded = append(bounded, sp)
		}
	}
	sort.Slice(bounded, func(i, j int) bool { return bounded[i].MaxAltitude < bounded[j].MaxAltitude })
	floor := 0.0
	for _, sp := range bounded {
		alt := (floor + sp.MaxAltitude) / 2
		cam := pipeline.NewSimCamera(dataset.DefaultConfig(sp.Size), 1, 60)
		f, _ := cam.Next()
		resp := postWithHeader(url+"/detect", "application/json", marshalFrame(f.Image, alt), nil)
		if resp.Model != sp.Name {
			fatalf("altitude %.0fm routed to %q, want %s", alt, resp.Model, sp.Name)
		}
		fmt.Printf("altitude %.0fm routed to %s\n", alt, resp.Model)
		floor = sp.MaxAltitude
	}

	// Unknown model: 404, not a silent reroute.
	cam := pipeline.NewSimCamera(dataset.DefaultConfig(specs[0].Size), 1, 61)
	f, _ := cam.Next()
	r, err := http.Post(url+"/detect?model=no-such-model", "application/json", bytes.NewReader(marshalFrame(f.Image, 0)))
	if err != nil {
		fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		fatalf("unknown model: status %d, want 404", r.StatusCode)
	}
	fmt.Println("unknown model rejected with 404")

	// Health and metrics carry one labelled block per model.
	var health struct {
		Status       string                    `json:"status"`
		DefaultModel string                    `json:"default_model"`
		Models       map[string]map[string]any `json:"models"`
	}
	getJSON(url+"/healthz", &health)
	if health.Status != "ok" || health.DefaultModel != specs[0].Name {
		fatalf("healthz: %+v", health)
	}
	var rep serve.MetricsReport
	getJSON(url+"/metrics", &rep)
	for _, sp := range specs {
		h, ok := health.Models[sp.Name]
		if !ok || h["precision"] != sp.Precision {
			fatalf("healthz models[%s] = %v, want precision %s", sp.Name, h, sp.Precision)
		}
		st, ok := rep.Models[sp.Name]
		if !ok || st.Completed == 0 {
			fatalf("metrics models[%s]: ok=%v completed=%d", sp.Name, ok, st.Completed)
		}
		fmt.Printf("metrics %s: %d completed, %.1f FPS aggregate\n", sp.Name, st.Completed, st.AggregateFPS)
	}
	if rep.Completed == 0 {
		fatal("fleet metrics report zero completed requests")
	}
}

// swapWalk drives one full live-lifecycle pass against the admin listener
// while a background client hammers the data plane: every data-plane
// response throughout must be 200 or 429 — an add, two weight swaps, and a
// remove may never surface as a 5xx or a dropped connection.
func swapWalk(dataURL, adminURL, spec string) {
	specs, err := serve.ParseModelSpecs(spec)
	if err != nil {
		fatal(err)
	}
	primary := specs[0]
	cam := pipeline.NewSimCamera(dataset.DefaultConfig(primary.Size), 1, 70)
	f, _ := cam.Next()
	body := marshalFrame(f.Image, 0)

	var served, shed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Post(dataURL+"/detect", "application/json", bytes.NewReader(body))
			if err != nil {
				fatalf("traffic during lifecycle churn: %v", err)
			}
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				served.Add(1)
			case http.StatusTooManyRequests:
				shed.Add(1)
			default:
				fatalf("traffic during lifecycle churn: status %d (want 200 or 429)", resp.StatusCode)
			}
		}
	}()

	var list struct {
		Models []struct {
			Name       string `json:"name"`
			Generation uint64 `json:"generation"`
		} `json:"models"`
	}
	if code := adminJSON(http.MethodGet, adminURL+"/admin/models", "", &list); code != http.StatusOK {
		fatalf("admin list: status %d", code)
	}
	if len(list.Models) != len(specs) {
		fatalf("admin list: %d models, spawned with %d", len(list.Models), len(specs))
	}
	fmt.Printf("admin: %d models hosted\n", len(list.Models))

	// Hot add, then serve from the new pool by explicit selection.
	hotSpec := fmt.Sprintf("hot=dronet:%d:fp32::2", primary.Size)
	var added struct {
		Name       string `json:"name"`
		Generation uint64 `json:"generation"`
	}
	if code := adminJSON(http.MethodPost, adminURL+"/admin/models", `{"spec": "`+hotSpec+`"}`, &added); code != http.StatusCreated {
		fatalf("hot add: status %d", code)
	}
	resp := post(dataURL+"/detect?model=hot", "application/json", body)
	if resp.Model != "hot" || resp.Generation != added.Generation {
		fatalf("hot-added model served model=%q gen=%d, want hot gen %d", resp.Model, resp.Generation, added.Generation)
	}
	fmt.Printf("hot add: model %s serving at generation %d\n", added.Name, added.Generation)

	// Atomic weight swap of the added model: generation must advance and
	// the data plane must serve the new pool.
	var swapped struct {
		Generation    uint64 `json:"generation"`
		OldGeneration uint64 `json:"old_generation"`
	}
	if code := adminJSON(http.MethodPut, adminURL+"/admin/models/hot", `{"spec": "`+hotSpec+`"}`, &swapped); code != http.StatusOK {
		fatalf("swap hot: status %d", code)
	}
	if swapped.OldGeneration != added.Generation || swapped.Generation <= swapped.OldGeneration {
		fatalf("swap hot: generations %+v (added at %d)", swapped, added.Generation)
	}
	resp = post(dataURL+"/detect?model=hot", "application/json", body)
	if resp.Generation != swapped.Generation {
		fatalf("post-swap response generation %d, want %d", resp.Generation, swapped.Generation)
	}
	fmt.Printf("swap: hot advanced generation %d -> %d\n", swapped.OldGeneration, swapped.Generation)

	// Swap the primary model too — this is the pool the background traffic
	// is riding, so it proves drain-then-retire under live load.
	if code := adminJSON(http.MethodPut, adminURL+"/admin/models/"+primary.Name, `{"spec": "`+primary.String()+`"}`, &swapped); code != http.StatusOK {
		fatalf("swap %s: status %d", primary.Name, code)
	}
	fmt.Printf("swap: %s advanced generation %d -> %d under traffic\n", primary.Name, swapped.OldGeneration, swapped.Generation)

	// Retire the added model; explicit selection must 404 afterwards.
	if code := adminJSON(http.MethodDelete, adminURL+"/admin/models/hot", "", nil); code != http.StatusOK {
		fatalf("remove hot: status %d", code)
	}
	r, err := http.Post(dataURL+"/detect?model=hot", "application/json", bytes.NewReader(body))
	if err != nil {
		fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		fatalf("removed model still routable: status %d, want 404", r.StatusCode)
	}

	close(stop)
	wg.Wait()
	if served.Load() == 0 {
		fatal("background traffic served zero requests during the lifecycle walk")
	}
	fmt.Printf("swap smoke: %d served, %d shed, zero failures across the lifecycle\n", served.Load(), shed.Load())
}

// shardedWalk is the driver behind `make shard-smoke`: it spawns two
// dronet-serve shards (labelled shard0/shard1), fronts them with a spawned
// dronet-proxy, and walks the sharded tier end to end — camera affinity by
// query and header, fleet /healthz and /metrics aggregation, then the
// failure drill: kill -9 one shard under traffic and require that clients
// only ever see 200/429/503 while the victim's cameras fail over and the
// proxy ejects it from the fleet view.
func shardedWalk(serverBin, proxyBin string, size int, precision string) {
	type shardProc struct {
		id string
		*cluster.Process
	}
	shards := make([]shardProc, 2)
	for i := range shards {
		id := fmt.Sprintf("shard%d", i)
		p, err := children.Spawn(serverBin, append(serverArgs(size, precision, ""), "-shard-id", id), false)
		if err != nil {
			fatalf("spawn %s: %v", id, err)
		}
		shards[i] = shardProc{id: id, Process: p}
		fmt.Printf("spawned %s on %s\n", id, p.Addr)
	}
	proxy, err := children.Spawn(proxyBin, []string{
		"-addr", "127.0.0.1:0",
		"-shards", shards[0].Addr + "," + shards[1].Addr,
		"-health-interval", "50ms",
		"-fail-threshold", "2",
	}, false)
	if err != nil {
		fatalf("spawn proxy: %v", err)
	}
	url := "http://" + proxy.Addr
	fmt.Printf("spawned proxy on %s\n", proxy.Addr)

	cam := pipeline.NewSimCamera(dataset.DefaultConfig(size), 1, 80)
	f, _ := cam.Next()
	body := marshalFrame(f.Image, 0)

	// Camera affinity: every camera maps to a stable shard, the query and
	// header spellings agree, and with 16 cameras both shards see traffic.
	const cameras = 16
	owner := make(map[string]string, cameras)
	hit := make(map[string]int, 2)
	for i := 0; i < cameras; i++ {
		id := fmt.Sprintf("smoke-cam-%d", i)
		code, shard := postStatus(url+"/detect?camera="+id, body, nil)
		if code != http.StatusOK || shard == "" {
			fatalf("camera %s: status %d, shard %q", id, code, shard)
		}
		code2, shard2 := postStatus(url+"/detect", body, http.Header{"X-Camera-ID": []string{id}})
		if code2 != http.StatusOK || shard2 != shard {
			fatalf("camera %s: header spelling landed on %q, query on %q", id, shard2, shard)
		}
		owner[id] = shard
		hit[shard]++
	}
	if len(hit) != 2 {
		fatalf("16 cameras all landed on one shard: %v", hit)
	}
	fmt.Printf("camera affinity: %d cameras pinned across %d shards %v\n", cameras, len(hit), hit)

	// Raw-PNG forwarding with altitude preserved through the proxy.
	var buf bytes.Buffer
	if err := png.Encode(&buf, f.Image.ToNRGBA()); err != nil {
		fatal(err)
	}
	raw := post(url+"/detect/raw?altitude=42.0", "image/png", buf.Bytes())
	fmt.Printf("raw PNG via proxy: %d detections (batch %d)\n", len(raw.Detections), raw.BatchSize)

	// Fleet metrics: per-shard labelled blocks plus a rollup that sums them.
	var fleet struct {
		Completed  uint64 `json:"completed"`
		LiveShards int    `json:"live_shards"`
		Shards     map[string]struct {
			ShardID string `json:"shard_id"`
			Metrics *struct {
				Completed uint64 `json:"completed"`
			} `json:"metrics"`
		} `json:"shards"`
	}
	getJSON(url+"/metrics", &fleet)
	if fleet.LiveShards != 2 || len(fleet.Shards) != 2 {
		fatalf("fleet metrics: live=%d shards=%d, want 2/2", fleet.LiveShards, len(fleet.Shards))
	}
	var sum uint64
	labels := make(map[string]bool, 2)
	for _, sm := range fleet.Shards {
		labels[sm.ShardID] = true
		if sm.Metrics != nil {
			sum += sm.Metrics.Completed
		}
	}
	if !labels["shard0"] || !labels["shard1"] {
		fatalf("fleet metrics missing shard identity labels: %v", labels)
	}
	if fleet.Completed != sum {
		fatalf("fleet rollup completed %d != per-shard sum %d", fleet.Completed, sum)
	}
	fmt.Printf("fleet metrics: rollup %d completed == per-shard sum, labels shard0+shard1 present\n", fleet.Completed)

	// Failure drill: kill -9 the owner of smoke-cam-0 under traffic.
	victim := owner["smoke-cam-0"]
	var victimProc *shardProc
	for i := range shards {
		if shards[i].id == victim {
			victimProc = &shards[i]
		}
	}
	if victimProc == nil {
		fatalf("victim shard %q not among spawned shards", victim)
	}
	var served, shed, noShard atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("smoke-cam-%d", (c*5+i)%cameras)
				code, _ := postStatus(url+"/detect?camera="+id, body, nil)
				switch code {
				case http.StatusOK:
					served.Add(1)
				case http.StatusTooManyRequests:
					shed.Add(1)
				case http.StatusServiceUnavailable:
					noShard.Add(1)
				default:
					fatalf("traffic during shard kill: status %d (want 200, 429 or 503)", code)
				}
			}
		}(c)
	}
	time.Sleep(100 * time.Millisecond)
	if err := victimProc.Cmd.Process.Kill(); err != nil {
		fatal(err)
	}
	_ = victimProc.Cmd.Wait() // reports the kill
	time.Sleep(600 * time.Millisecond)
	close(stop)
	wg.Wait()
	if served.Load() == 0 {
		fatal("no request succeeded around the shard kill")
	}
	fmt.Printf("killed %s under traffic: %d served, %d shed, %d no-shard, zero other statuses\n",
		victim, served.Load(), shed.Load(), noShard.Load())

	// The proxy must eject the victim and keep every camera routable on the
	// survivor.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var health struct {
			Status string `json:"status"`
			Live   int    `json:"live_shards"`
		}
		getJSON(url+"/healthz", &health)
		if health.Status == "degraded" && health.Live == 1 {
			break
		}
		if time.Now().After(deadline) {
			fatalf("proxy never ejected the killed shard: %+v", health)
		}
		time.Sleep(25 * time.Millisecond)
	}
	for i := 0; i < cameras; i++ {
		id := fmt.Sprintf("smoke-cam-%d", i)
		code, shard := postStatus(url+"/detect?camera="+id, body, nil)
		if code != http.StatusOK || shard == victim {
			fatalf("post-kill camera %s: status %d via %q (victim %q)", id, code, shard, victim)
		}
	}
	fmt.Printf("proxy ejected %s; all %d cameras fail over to the survivor\n", victim, cameras)

	// Graceful teardown: proxy first, then the surviving shard.
	if err := proxy.Drain(drainTimeout); err != nil {
		fatalf("proxy exit: %v", err)
	}
	for i := range shards {
		if shards[i].id != victim {
			if err := shards[i].Drain(drainTimeout); err != nil {
				fatalf("%s exit: %v", shards[i].id, err)
			}
		}
	}
	fmt.Println("proxy and surviving shards drained and exited cleanly")
}

// postStatus posts a detect body and returns the status code plus the
// proxy's X-Dronet-Shard attribution, without failing on non-200 — the
// chaos legs assert on the full status distribution.
func postStatus(url string, body []byte, extra http.Header) (int, string) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, vs := range extra {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Dronet-Shard")
}

// adminJSON issues one admin request with an optional JSON body, decodes
// the response into out when non-nil, and returns the status code.
func adminJSON(method, url, body string, out any) int {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			fatalf("%s %s: bad response JSON: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func marshalFrame(img *imgproc.Image, altitude float64) []byte {
	body, err := json.Marshal(serve.DetectRequest{
		Width: img.W, Height: img.H, Pixels: img.Pix, Altitude: altitude,
	})
	if err != nil {
		fatal(err)
	}
	return body
}

// serverArgs is a spawned dronet-serve's command line: a free loopback port
// and a quarter-scale model at size and precision, or the registry
// modelsSpec when it is set, on two workers batching up to four images.
func serverArgs(size int, precision, modelsSpec string) []string {
	return []string{"-addr", "127.0.0.1:0", "-size", fmt.Sprint(size), "-scale", "0.25",
		"-workers", "2", "-max-batch", "4", "-precision", precision, "-models", modelsSpec}
}

func postJSON(url string, img *imgproc.Image, altitude float64) serve.DetectResponse {
	body, err := json.Marshal(serve.DetectRequest{
		Width: img.W, Height: img.H, Pixels: img.Pix, Altitude: altitude,
	})
	if err != nil {
		fatal(err)
	}
	return post(url+"/detect", "application/json", body)
}

func post(url, contentType string, body []byte) serve.DetectResponse {
	return postWithHeader(url, contentType, body, nil)
}

// postWithHeader posts a body with optional extra headers (the X-Model
// routing selector) and decodes the detection response. Backpressure
// answers (429/503) carrying Retry-After are honored with a jittered wait
// — the well-behaved-client side of the server's shedding contract — for
// a bounded number of retries before giving up.
func postWithHeader(url, contentType string, body []byte, extra http.Header) serve.DetectResponse {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			fatal(err)
		}
		req.Header.Set("Content-Type", contentType)
		for k, vs := range extra {
			for _, v := range vs {
				req.Header.Add(k, v)
			}
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			fatal(err)
		}
		if d, ok := retryAfter(resp); ok && attempt < 3 {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			// Full jitter in [d/2, d) keeps a fleet of clients from
			// re-arriving in lockstep when the server sheds them together.
			time.Sleep(d/2 + time.Duration(rand.Int63n(int64(d/2)+1)))
			continue
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fatalf("POST %s: %s", url, resp.Status)
		}
		var out serve.DetectResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			fatalf("POST %s: bad response JSON: %v", url, err)
		}
		if out.Detections == nil {
			fatalf("POST %s: response missing detections array", url)
		}
		return out
	}
}

// retryAfter reports whether the response is a retryable backpressure
// answer (429/503 with a Retry-After delay in seconds) and the advertised
// wait.
func retryAfter(resp *http.Response) (time.Duration, bool) {
	if resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusServiceUnavailable {
		return 0, false
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

func getJSON(url string, v any) {
	resp, err := http.Get(url)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		fatalf("GET %s: bad JSON: %v", url, err)
	}
}
