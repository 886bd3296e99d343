package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"image"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/imgproc"
	"repro/internal/layers"
	"repro/internal/network"
	"repro/internal/pipeline"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/tracking"
	"repro/internal/ws"
)

// Every stage is called at most maxCalls times and at least minCalls, and
// between the two until its share of the replay time is spent: the paper-size
// model's 8-image forward takes a tenth of a second, a ring lookup a tenth of
// a microsecond.
const (
	maxCalls = 200
	minCalls = 5
)

// span is one timed call into a module's public function, recorded from the
// harness's side of the boundary.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"` // index of the span that caused this one; -1 for a root
	Frame   int    `json:"frame"`
	StartNs int64  `json:"start_ns"` // since the replay began
	EndNs   int64  `json:"end_ns"`
}

// layerRow is one line of the per-layer table in the trace file.
type layerRow struct {
	Index  int     `json:"index"`
	Layer  string  `json:"layer"`
	Ms     float64 `json:"ms"`
	MFLOPs float64 `json:"mflops"`
	MB     float64 `json:"mb"` // computed from shapes, not measured
	GFLOPS float64 `json:"gflops"`
}

// tracer keeps spans in memory until the replay ends.
type tracer struct {
	Workload string     `json:"workload"`
	Layers   []layerRow `json:"layers"`
	Spans    []span     `json:"spans"`

	t0 time.Time
	on bool
}

func (t *tracer) begin(name string, parent, frame int) int {
	if !t.on {
		return -1
	}
	t.Spans = append(t.Spans, span{Name: name, Parent: parent, Frame: frame, StartNs: int64(time.Since(t.t0))})
	return len(t.Spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.Spans[id].EndNs = int64(time.Since(t.t0))
	}
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// medianMs is the median duration, in milliseconds, of the named spans.
func (t *tracer) medianMs(name string) float64 {
	var ms []float64
	for _, s := range t.Spans {
		if s.Name == name {
			ms = append(ms, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return median(ms)
}

// stage times fn call by call, one root span each, after one unrecorded
// warm-up call, and returns the median in milliseconds.
func (t *tracer) stage(name string, budget time.Duration, fn func(i int)) float64 {
	fn(0)
	first := len(t.Spans)
	start := time.Now()
	for i := 0; i < maxCalls && (i < minCalls || time.Since(start) < budget); i++ {
		id := t.begin(name, -1, i)
		fn(i)
		t.end(id)
	}
	var ms []float64
	for _, s := range t.Spans[first:] {
		ms = append(ms, float64(s.EndNs-s.StartNs)/1e6)
	}
	return median(ms)
}

// calibrationFrames is dronet-serve's -calib-frames default, rendered from
// the same fixed seed its buildModel uses.
const (
	calibrationFrames = 8
	calibrationSeed   = 7
)

func quantize(det *core.Detector, size int) (core.Model, time.Duration, error) {
	cam := pipeline.NewSimCamera(dataset.DefaultConfig(size), calibrationFrames, calibrationSeed)
	var calib []*tensor.Tensor
	for f, ok := cam.Next(); ok; f, ok = cam.Next() {
		calib = append(calib, f.Image.ToTensor())
	}
	start := time.Now()
	mdl, err := det.QuantizeINT8(calib)
	return mdl, time.Since(start), err
}

// buildServer assembles in-process the serve.Server the workload's
// dronet-serve processes run, the way cmd/dronet-serve does from its flags.
func buildServer(w *workload) (*serve.Server, error) {
	workers := w.workers
	if workers == 0 {
		workers = runtime.NumCPU()
	}
	var entries []serve.ModelEntry
	for _, m := range w.models {
		det, err := newDetector(w, m)
		if err != nil {
			return nil, err
		}
		mdl := det.Model()
		if m.precision == "int8" {
			if mdl, _, err = quantize(det, m.size); err != nil {
				return nil, err
			}
		}
		eng, err := engine.New(mdl, engine.Config{Workers: workers, Thresh: serverThresh, NMSThresh: det.NMSThresh})
		if err != nil {
			return nil, err
		}
		entries = append(entries, serve.ModelEntry{
			Name: m.route, Engine: eng, MaxAltitude: m.maxAlt,
			Config: serve.Config{MaxBatch: w.batch, Warm: true, Precision: m.precision},
		})
	}
	if len(entries) == 1 {
		return serve.New(entries[0].Engine, entries[0].Config)
	}
	return serve.NewRouted(entries)
}

// replay is the traced run's in-process half: on the workload's own frames it
// calls each module's public functions from here, times every call as a span,
// and derives the per-layer metrics into m. A layer's self time is its span
// minus what the next level down measured.
func replay(w *workload, in *inputs, budget time.Duration, m map[string]float64) (*tracer, error) {
	tr := &tracer{Workload: w.name, t0: time.Now(), on: true}
	unit := budget / 25 // the chain and the handler get five units each, every other stage one

	// One warmed single-worker engine per hosted model; the int8 one is
	// quantized the way dronet-serve does it at start-up.
	var det *core.Detector
	engines := make([]*engine.Engine, len(w.models))
	var qnet core.Model
	var qOps int64
	m["quant.calibrate_s"] = 0
	for r, ms := range w.models {
		var err error
		if det, err = newDetector(w, ms); err != nil {
			return nil, err
		}
		mdl := det.Model()
		if ms.precision == "int8" {
			var took time.Duration
			if mdl, took, err = quantize(det, ms.size); err != nil {
				return nil, err
			}
			qnet, qOps = mdl, det.FLOPs()
			m["quant.calibrate_s"] = took.Seconds()
		}
		engines[r], err = engine.New(mdl, engine.Config{Workers: 1, Thresh: serverThresh, NMSThresh: det.NMSThresh})
		if err != nil {
			return nil, err
		}
		engines[r].WarmBatch(w.batch)
	}
	// The fp32 numbers below describe the workload's fp32 model: its only
	// model, or the routed workload's overflow route, which comes last.
	spec, net, eng := w.models[len(w.models)-1], det.Net, engines[len(w.models)-1]

	// (a) Chain replay: each frame through the functions a request passes,
	// in request order, on this goroutine. Every frame runs twice, once
	// recording spans and once not; the difference is the tracing overhead.
	chain := func(i int) {
		f := &in.frames[i%len(in.frames)]
		root := tr.begin("frame", -1, i)
		var img *imgproc.Image
		switch f.codec {
		case codecJSON:
			id := tr.begin("serve.json_decode", root, i)
			var req serve.DetectRequest
			_ = json.NewDecoder(bytes.NewReader(f.body)).Decode(&req)
			tr.end(id)
			img = &imgproc.Image{W: req.Width, H: req.Height, Pix: req.Pixels}
		case codecStream:
			id := tr.begin("serve.json_decode", root, i)
			var req serve.StreamFrame
			_ = json.Unmarshal(f.body, &req)
			tr.end(id)
			img = &imgproc.Image{W: req.Width, H: req.Height, Pix: req.Pixels}
		default:
			id := tr.begin("imgproc.decode", root, i)
			src, _, _ := image.Decode(bytes.NewReader(f.body))
			img = imgproc.FromGoImage(src)
			tr.end(id)
		}
		if size := w.models[f.route].size; img.W != size || img.H != size {
			id := tr.begin("imgproc.resize", root, i)
			img = img.Resize(size, size)
			tr.end(id)
		}
		id := tr.begin("engine.execute", root, i)
		per, _ := engines[f.route].ExecuteBatch(0, []*imgproc.Image{img}, nil)
		tr.end(id)
		id = tr.begin("serve.json_encode", root, i)
		_ = json.NewEncoder(io.Discard).Encode(serve.DetectResponse{Detections: wire(per[0]), BatchSize: 1})
		tr.end(id)
		tr.end(root)
	}
	chain(0)
	var extra, plain []float64 // per frame: traced minus untraced, and untraced, in ms
	start := time.Now()
	for i := 0; i < maxCalls && (i < minCalls || time.Since(start) < 5*unit); i++ {
		var took [2]time.Duration
		for _, on := range []bool{i%2 == 0, i%2 != 0} { // alternate which goes first
			tr.on = on
			t := time.Now()
			chain(i)
			took[b2i(on)] = time.Since(t)
		}
		extra = append(extra, float64(took[1]-took[0])/1e6)
		plain = append(plain, float64(took[0])/1e6)
	}
	tr.on = true
	m["trace.overhead_share"] = median(extra) / median(plain)
	chainMs := tr.medianMs("frame")
	m["serve.json_decode_ms"] = tr.medianMs("serve.json_decode")
	m["imgproc.decode_ms"] = tr.medianMs("imgproc.decode")
	m["imgproc.resize_ms"] = tr.medianMs("imgproc.resize")
	m["serve.json_encode_ms"] = tr.medianMs("serve.json_encode")

	// The stages below run on the fp32 model, on frames already at its input
	// size, so nothing but the named call is inside a span.
	var sized []*imgproc.Image
	for i := range in.frames {
		img := in.frames[i].seen
		if img.W != spec.size || img.H != spec.size {
			img = img.Resize(spec.size, spec.size)
		}
		sized = append(sized, img)
	}
	batchOf := func(i, n int) []*imgproc.Image {
		out := make([]*imgproc.Image, n)
		for j := range out {
			out[j] = sized[(i+j)%len(sized)]
		}
		return out
	}
	tensorOf := func(n int) *tensor.Tensor {
		x := tensor.New(n, 3, spec.size, spec.size)
		for j := 0; j < n; j++ {
			copy(x.Data[j*3*spec.size*spec.size:], sized[j%len(sized)].Pix)
		}
		return x
	}
	x1, x8 := tensorOf(1), tensorOf(8)
	execB1 := tr.stage("engine.execute_b1", unit, func(i int) { _, _ = eng.ExecuteBatch(0, batchOf(i, 1), nil) })
	m["engine.execute_b1_ms"] = execB1
	m["engine.execute_b8_ms"] = tr.stage("engine.execute_b8", unit, func(i int) { _, _ = eng.ExecuteBatch(0, batchOf(i, 8), nil) })
	runner := serialRunner(det)
	runB1 := tr.stage("pipeline.detect_b1", unit, func(i int) { _, _ = runner.Detect(batchOf(i, 1), nil) })
	detB1 := tr.stage("network.detect_batch_b1", unit, func(int) { _, _ = net.DetectBatch(x1, serverThresh, det.NMSThresh) })
	fwdB1 := tr.stage("network.forward_b1", unit, func(int) { net.ForwardBatch(x1) })
	m["network.forward_b1_ms"] = fwdB1
	m["network.forward_b8_ms"] = tr.stage("network.forward_b8", unit, func(int) { net.ForwardBatch(x8) })
	m["engine.self_ms"] = execB1 - runB1
	m["pipeline.pack_ms"] = runB1 - detB1
	m["detect.postprocess_ms"] = detB1 - fwdB1
	m["network.mflops_per_image"] = float64(net.FLOPs()) / 1e6
	m["network.io_mb_per_image"] = float64(net.IOBytes()) / 1e6
	m["network.achieved_gflops"] = float64(net.FLOPs()) / 1e9 / (fwdB1 / 1e3)
	boxes := 0
	for i := range in.frames {
		boxes += len(in.frames[i].want)
	}
	m["detect.boxes_per_image"] = float64(boxes) / float64(len(in.frames))

	// Each layer alone, as a one-layer network over a weight-sharing clone,
	// so its scratch arena resets per call exactly as in a full forward.
	rng := tensor.NewRNG(1)
	var convMs []float64
	byKind := map[string]float64{}
	layersMs := 0.0
	for i, l := range net.Layers {
		s := l.InShape()
		one := network.New(l.Name(), s.W, s.H, s.C)
		if err := one.Add(l.CloneForInference()); err != nil {
			return nil, err
		}
		x := tensor.New(1, s.C, s.H, s.W)
		rng.FillUniform(x.Data, 0, 1)
		ms := tr.stage(fmt.Sprintf("layers.%d", i), unit/time.Duration(len(net.Layers)), func(int) { one.Forward(x, false) })
		layersMs += ms
		kind := "region"
		switch l.(type) {
		case *layers.Conv2D:
			kind = "conv"
			convMs = append(convMs, ms)
		case *layers.MaxPool:
			kind = "maxpool"
		}
		byKind[kind] += ms
		tr.Layers = append(tr.Layers, layerRow{
			Index: i, Layer: l.Name(), Ms: ms, MFLOPs: float64(l.FLOPs()) / 1e6, MB: float64(l.IOBytes()) / 1e6,
			GFLOPS: float64(l.FLOPs()) / 1e9 / (ms / 1e3),
		})
	}
	m["layers.conv_ms"], m["layers.maxpool_ms"], m["layers.region_ms"] = byKind["conv"], byKind["maxpool"], byKind["region"]
	early := 0.0
	for _, ms := range convMs[:min(3, len(convMs))] {
		early += ms
	}
	m["layers.conv_early_share"] = early / byKind["conv"]
	m["network.self_ms"] = fwdB1 - layersMs

	// The GEMM shapes of DroNet's second and eighth convolution at 512 px,
	// weights pre-packed as the serving path holds them; 2 ops per MAC.
	for _, g := range []struct {
		name    string
		m, n, k int
	}{{"early", 12, 65536, 72}, {"late", 64, 1024, 216}} {
		a := make([]float32, g.m*g.k)
		b := make([]float32, g.k*g.n)
		c := make([]float32, g.m*g.n)
		rng.FillUniform(a, -1, 1)
		rng.FillUniform(b, -1, 1)
		qa, qb := make([]int8, len(a)), make([]int8, len(b))
		for i, v := range a {
			qa[i] = int8(v * 127)
		}
		for i, v := range b {
			qb[i] = int8(v * 127)
		}
		requant, bias := make([]float32, g.m), make([]float32, g.m)
		for i := range requant {
			requant[i] = 1.0 / 127
		}
		gops := 2 * float64(g.m) * float64(g.n) * float64(g.k) / 1e9
		pre := tensor.PackA(false, g.m, g.k, 1, a, g.k)
		ms := tr.stage("tensor.gemm_"+g.name, unit/2, func(int) { tensor.GemmPrepacked(pre, false, g.n, b, g.n, 0, c, g.n) })
		m["tensor.gemm_"+g.name+"_gflops"] = gops / (ms / 1e3)
		preI8 := tensor.PackAInt8(g.m, g.k, qa, g.k)
		ms = tr.stage("tensor.gemm_int8_"+g.name, unit/2, func(int) {
			tensor.GemmInt8Prepacked(preI8, g.n, qb, g.n, requant, bias, c, g.n)
		})
		m["tensor.gemm_int8_"+g.name+"_gops"] = gops / (ms / 1e3)
	}
	img := make([]float32, 8*256*256)
	col := make([]float32, 72*65536)
	rng.FillUniform(img, 0, 1)
	m["tensor.im2col_early_ms"] = tr.stage("tensor.im2col_early", unit, func(int) { tensor.Im2col(img, 8, 256, 256, 3, 1, 1, col) })

	m["quant.forward_b1_ms"], m["quant.forward_b8_ms"], m["quant.achieved_gops"] = 0, 0, 0
	if qnet != nil {
		qs := w.models[0].size
		q1, q8 := tensor.New(1, 3, qs, qs), tensor.New(8, 3, qs, qs)
		rng.FillUniform(q1.Data, 0, 1)
		rng.FillUniform(q8.Data, 0, 1)
		ms := tr.stage("quant.forward_b1", unit, func(int) { qnet.ForwardBatch(q1) })
		m["quant.forward_b1_ms"] = ms
		m["quant.forward_b8_ms"] = tr.stage("quant.forward_b8", unit, func(int) { qnet.ForwardBatch(q8) })
		m["quant.achieved_gops"] = float64(qOps) / 1e9 / (ms / 1e3)
	}

	m["tracking.update_us"], m["tracking.live_tracks"], m["ws.echo_ms"] = 0, 0, 0
	if w.codecs[0] == codecStream {
		// One camera's sequence, as its session's tracker sees it.
		trk := tracking.New(tracking.Config{})
		var seq [][]serve.DetectionJSON
		for i := range in.frames {
			if in.frames[i].camera == in.frames[0].camera {
				seq = append(seq, in.frames[i].want)
			}
		}
		live := 0
		ms := tr.stage("tracking.update", unit, func(i int) {
			trk.Update(unwire(seq[i%len(seq)]))
			live += trk.Live()
		})
		m["tracking.update_us"] = ms * 1e3
		m["tracking.live_tracks"] = float64(live) / float64(trk.Frame())
		echoMs, err := wsEcho(tr, unit, in.frames[0].body)
		if err != nil {
			return nil, err
		}
		m["ws.echo_ms"] = echoMs
	}

	m["cluster.ring_owner_ns"] = 0
	if w.bin == "dronet-proxy" {
		ring := cluster.NewRing(cluster.DefaultVNodes)
		ring.Add("127.0.0.1:1")
		ring.Add("127.0.0.1:2")
		const lookups = 1000
		ms := tr.stage("cluster.ring_owner_x1000", unit, func(i int) {
			for j := 0; j < lookups; j++ {
				ring.Owner(in.frames[(i+j)%len(in.frames)].camera)
			}
		})
		m["cluster.ring_owner_ns"] = ms * 1e6 / lookups
	}

	// (b) Served replay: the same bodies through the whole Server, one
	// request at a time.
	handlerMs, err := servedReplay(tr, w, in, 5*unit)
	if err != nil {
		return nil, err
	}
	m["serve.handler_ms"] = handlerMs
	m["serve.self_ms"] = handlerMs - chainMs // what the Server adds to decode + execute + encode of the same frames
	return tr, nil
}

// servedReplay pushes the workload's requests through an in-process
// serve.Server at concurrency 1: Server.ServeHTTP directly for the HTTP
// codecs, a loopback WebSocket session for stream frames.
func servedReplay(tr *tracer, w *workload, in *inputs, budget time.Duration) (float64, error) {
	srv, err := buildServer(w)
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	if w.codecs[0] == codecStream {
		ts := httptest.NewServer(srv)
		defer ts.Close()
		d, err := newStreamDriver(strings.TrimPrefix(ts.URL, "http://"), in, 1)
		if err != nil {
			return 0, err
		}
		defer d.close()
		bad := 0
		ms := tr.stage("serve.handler", budget, func(int) {
			if s := d.one(0); s.status != http.StatusOK {
				bad++
			}
		})
		if bad > 0 {
			return 0, fmt.Errorf("in-process session: %d frames not answered with a result", bad)
		}
		return ms, nil
	}
	bad := 0
	ms := tr.stage("serve.handler", budget, func(i int) {
		f := &in.frames[i%len(in.frames)]
		req := httptest.NewRequest(http.MethodPost, f.path, bytes.NewReader(f.body))
		req.Header.Set("Content-Type", f.ctype)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			bad++
		}
	})
	if bad > 0 {
		return 0, fmt.Errorf("in-process server: %d requests not answered 200", bad)
	}
	return ms, nil
}

// wsEcho times a frame-sized message over loopback, ws.Dial to ws.Accept and
// back.
func wsEcho(tr *tracer, budget time.Duration, msg []byte) (float64, error) {
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		conn, err := ws.Accept(rw, r)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		defer conn.Close()
		for {
			in, err := conn.ReadMessage()
			if err != nil || conn.WriteMessage(in) != nil {
				return
			}
		}
	}))
	defer ts.Close()
	conn, err := ws.Dial(strings.TrimPrefix(ts.URL, "http://"), "/", nil, 5*time.Second)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	var echoErr error
	ms := tr.stage("ws.echo", budget, func(int) {
		if err := conn.WriteMessage(msg); err != nil {
			echoErr = err
		} else if _, err := conn.ReadMessage(); err != nil {
			echoErr = err
		}
	})
	return ms, echoErr
}

// probeStats is what the concurrency-1 probes against the spawned fleet
// measured.
type probeStats struct {
	directP50Ms float64 // one connection straight to a serving process
	hopMs       float64 // through the proxy minus straight to the owning shard
	answered    int
}

// probeCount is how many sequential requests each probe series sends.
const probeCount = 60

// runProbes sends sequential requests on one connection to the idle fleet:
// to the server itself, or alternately through the proxy and straight to the
// shard that answered, to isolate the proxy hop.
func runProbes(w *workload, fl *fleet, drv driver) (probeStats, error) {
	var ps probeStats
	var direct, via []float64
	lat := func(s sample) (float64, error) {
		if s.status != http.StatusOK {
			return 0, fmt.Errorf("probe answered %d", s.status)
		}
		ps.answered++
		return s.done.Sub(s.sent).Seconds() * 1e3, nil
	}
	if w.bin != "dronet-proxy" {
		for i := 0; i < probeCount; i++ {
			ms, err := lat(drv.one(i))
			if err != nil {
				return ps, err
			}
			direct = append(direct, ms)
		}
		ps.directP50Ms = median(direct)
		return ps, nil
	}
	sc, err := fl.metrics()
	if err != nil {
		return ps, err
	}
	addrOf := map[string]string{}
	for addr, sh := range sc.Shards {
		addrOf[sh.ShardID] = addr
	}
	hd := drv.(*httpDriver)
	for i := 0; i < probeCount; i++ {
		s := hd.post(hd.base, i, time.Time{})
		ms, err := lat(s)
		if err != nil {
			return ps, err
		}
		via = append(via, ms)
		addr, ok := addrOf[s.shard]
		if !ok {
			return ps, fmt.Errorf("proxy answered from unknown shard %q", s.shard)
		}
		if ms, err = lat(hd.post("http://"+addr, i, time.Time{})); err != nil {
			return ps, err
		}
		direct = append(direct, ms)
	}
	ps.directP50Ms = median(direct)
	ps.hopMs = median(via) - ps.directP50Ms
	return ps, nil
}
