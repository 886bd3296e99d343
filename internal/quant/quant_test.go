package quant

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cfg"
	"repro/internal/detect"
	"repro/internal/models"
	"repro/internal/network"
	"repro/internal/platform"
	"repro/internal/tensor"
)

func buildDroNet(t *testing.T, size int) *network.Network {
	t.Helper()
	net, _, err := models.Build(models.DroNet, size, tensor.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func randImages(n, c, h, w int, seed uint64) []*tensor.Tensor {
	rng := tensor.NewRNG(seed)
	imgs := make([]*tensor.Tensor, n)
	for i := range imgs {
		x := tensor.New(1, c, h, w)
		rng.FillUniform(x.Data, 0, 1)
		imgs[i] = x
	}
	return imgs
}

func TestFoldBatchNormParity(t *testing.T) {
	net := buildDroNet(t, 96)
	// Give the rolling statistics non-trivial values by running a few
	// training-mode forwards.
	rng := tensor.NewRNG(9)
	x := tensor.New(2, 3, 96, 96)
	rng.FillUniform(x.Data, 0, 1)
	for i := 0; i < 5; i++ {
		net.Forward(x, true)
	}
	folded, err := FoldBatchNorm(net)
	if err != nil {
		t.Fatal(err)
	}
	probe := tensor.New(1, 3, 96, 96)
	rng.FillUniform(probe.Data, 0, 1)
	a := net.Forward(probe, false).Clone()
	b := folded.Forward(probe, false)
	var maxDiff float64
	for i := range a.Data {
		if d := math.Abs(float64(a.Data[i] - b.Data[i])); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-3 {
		t.Fatalf("BN folding changed outputs by %v", maxDiff)
	}
	// All convolutions in the folded network are BN-free.
	for _, p := range folded.Params() {
		if p.Name == "scales" {
			t.Fatal("folded network still has BN scales")
		}
	}
}

func TestQuantizeNeedsCalibration(t *testing.T) {
	net := buildDroNet(t, 96)
	if _, err := Quantize(net, nil); err == nil {
		t.Fatal("expected error without calibration images")
	}
}

func TestQuantizedForwardCloseToFloat(t *testing.T) {
	net := buildDroNet(t, 96)
	calib := randImages(3, 3, 96, 96, 21)
	q, err := Quantize(net, calib)
	if err != nil {
		t.Fatal(err)
	}
	folded, err := FoldBatchNorm(net)
	if err != nil {
		t.Fatal(err)
	}
	probe := randImages(1, 3, 96, 96, 22)[0]
	a := folded.Forward(probe, false).Clone()
	b := q.Forward(probe, false)
	if a.Len() != b.Len() {
		t.Fatal("shape mismatch")
	}
	// Compare region-layer outputs: sigmoid-bounded entries should agree
	// closely; measure the mean absolute difference.
	var sum float64
	for i := range a.Data {
		sum += math.Abs(float64(a.Data[i] - b.Data[i]))
	}
	mean := sum / float64(a.Len())
	if mean > 0.08 {
		t.Fatalf("quantized output drifts too far: mean |Δ| = %v", mean)
	}
}

func TestQuantizedDetectParity(t *testing.T) {
	net := buildDroNet(t, 96)
	calib := randImages(3, 3, 96, 96, 31)
	q, err := Quantize(net, calib)
	if err != nil {
		t.Fatal(err)
	}
	probe := randImages(1, 3, 96, 96, 32)[0]
	fdets, err := net.Detect(probe, 0.01, 0.45)
	if err != nil {
		t.Fatal(err)
	}
	qdets, err := q.Detect(probe, 0.01, 0.45)
	if err != nil {
		t.Fatal(err)
	}
	// Untrained nets produce near-uniform confidences; the box counts
	// should be in the same ballpark (within a factor of 3).
	if len(fdets) > 0 && (len(qdets) > 3*len(fdets)+5 || 3*len(qdets)+5 < len(fdets)) {
		t.Fatalf("detection count diverged: float %d vs int8 %d", len(fdets), len(qdets))
	}
}

// TestInt8DetectBatchMatchesSerial mirrors network.TestDetectBatchMatchesSerial
// for the INT8 path: one N-image batched DetectBatch must be byte-identical
// to N serial single-image calls, including after batch-size changes over
// the re-sliced workspaces — the invariant that lets the serving
// micro-batcher coalesce int8 requests.
func TestInt8DetectBatchMatchesSerial(t *testing.T) {
	net := buildDroNet(t, 96)
	const n = 4
	imgs := randImages(n, 3, 96, 96, 51)
	q, err := Quantize(net, imgs)
	if err != nil {
		t.Fatal(err)
	}
	const thresh, nms = 0.01, 0.45

	serial := q.CloneForInference()
	expected := make([][]detect.Detection, n)
	for i, img := range imgs {
		per, err := serial.DetectBatch(img, thresh, nms)
		if err != nil {
			t.Fatal(err)
		}
		expected[i] = per[0]
	}

	batch := tensor.New(n, 3, 96, 96)
	sample := 3 * 96 * 96
	for i, img := range imgs {
		copy(batch.Data[i*sample:(i+1)*sample], img.Data)
	}
	got, err := q.DetectBatch(batch, thresh, nms)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := range got {
		if !reflect.DeepEqual(got[i], expected[i]) {
			t.Errorf("image %d: batched int8 detections differ from serial", i)
		}
		total += len(got[i])
	}
	if total == 0 {
		t.Fatal("test degenerated: no detections on any image")
	}

	// Shrinking and regrowing the batch must keep the identity: int8
	// workspaces re-slice over grown storage and stale tails must not leak.
	for _, sub := range [][]int{{2}, {3, 0, 1}, {1, 2}} {
		part := tensor.New(len(sub), 3, 96, 96)
		for j, idx := range sub {
			copy(part.Data[j*sample:(j+1)*sample], imgs[idx].Data)
		}
		got, err := q.DetectBatch(part, thresh, nms)
		if err != nil {
			t.Fatal(err)
		}
		for j, idx := range sub {
			if !reflect.DeepEqual(got[j], expected[idx]) {
				t.Errorf("sub-batch %v image %d: int8 detections differ after batch-size change", sub, idx)
			}
		}
	}
}

// TestInt8ForwardIgnoresStaleSlabs is the int8 twin of
// network.TestForwardIgnoresStaleSlabs: after a batch-8 forward on frames of
// NaN, +Inf, −Inf and ±3e38, which leaves saturated and non-finite values in
// the replica's activation slabs and arena, a batch-3 forward on real
// frames must give, image by image, the bytes of a fresh replica's batch-1
// forward — so no QConv, pool or region step reads its output, or a stale
// step, before writing it.
func TestInt8ForwardIgnoresStaleSlabs(t *testing.T) {
	net := buildDroNet(t, 64)
	q, err := Quantize(net, randImages(2, 3, 64, 64, 71))
	if err != nil {
		t.Fatal(err)
	}
	poison := tensor.New(8, 3, 64, 64)
	for b := 0; b < poison.N; b++ {
		d := poison.Batch(b).Data
		for i := range d {
			d[i] = [4]float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), [2]float32{3e38, -3e38}[i/7%2]}[b%4]
		}
	}
	x := tensor.New(3, 3, 64, 64)
	tensor.NewRNG(72).FillUniform(x.Data, 0, 1)

	used := q.CloneForInference()
	used.ForwardBatch(poison)
	got := used.ForwardBatch(x)
	for b := 0; b < x.N; b++ {
		want := q.CloneForInference().ForwardBatch(x.Batch(b))
		for i, v := range want.Data {
			if g := got.Batch(b).Data[i]; math.Float32bits(g) != math.Float32bits(v) {
				t.Fatalf("image %d: out[%d] = %v after a poisoned batch-8 pass, fresh replica %v", b, i, g, v)
			}
		}
	}
}

// TestInt8CloneConcurrent proves the replica contract int8-side: clones
// share quantized parameters, own their workspaces, and produce identical
// detections when run concurrently (meaningful under -race).
func TestInt8CloneConcurrent(t *testing.T) {
	net := buildDroNet(t, 96)
	imgs := randImages(4, 3, 96, 96, 61)
	q, err := Quantize(net, imgs)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]detect.Detection, len(imgs))
	for i, img := range imgs {
		per, err := q.DetectBatch(img, 0.01, 0.45)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = per[0]
	}
	const replicas = 2
	got := make([][][]detect.Detection, replicas)
	errs := make([]error, replicas)
	var wg sync.WaitGroup
	for r := 0; r < replicas; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rep := q.CloneForInference()
			got[r] = make([][]detect.Detection, len(imgs))
			for i, img := range imgs {
				per, err := rep.DetectBatch(img, 0.01, 0.45)
				if err != nil {
					errs[r] = err
					return
				}
				got[r][i] = per[0]
			}
		}(r)
	}
	wg.Wait()
	for r := 0; r < replicas; r++ {
		if errs[r] != nil {
			t.Fatalf("replica %d: %v", r, errs[r])
		}
		for i := range want {
			if !reflect.DeepEqual(want[i], got[r][i]) {
				t.Errorf("replica %d image %d: detections differ from original", r, i)
			}
		}
	}
}

func TestWeightBytesQuartered(t *testing.T) {
	net := buildDroNet(t, 96)
	q, err := Quantize(net, randImages(1, 3, 96, 96, 41))
	if err != nil {
		t.Fatal(err)
	}
	var floatBytes int64
	for _, p := range net.Params() {
		if p.Name == "weights" {
			floatBytes += int64(p.W.Len()) * 4
		}
	}
	// WeightBytes includes the pre-packed int16 GEMM panels (an honest
	// resident-memory figure); the storage-shrink claim is about the
	// parameter encoding itself, so compare without them.
	var prepacked int64
	for _, l := range q.Layers {
		if qc, ok := l.(*QConv); ok {
			prepacked += qc.packed.Bytes()
		}
	}
	storage := q.WeightBytes() - prepacked
	if prepacked <= 0 {
		t.Fatal("quantized net should carry pre-packed weight panels")
	}
	if storage >= floatBytes/2 {
		t.Fatalf("INT8 weights not meaningfully smaller: %d vs float %d", storage, floatBytes)
	}
}

func TestPredictFPSFasterThanFloat(t *testing.T) {
	// INT8 must never be slower in the platform model, and for the
	// cache-spilled TinyYoloVoc it should be markedly faster.
	for _, name := range models.Names() {
		net, _, err := models.Build(name, 512, tensor.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range platform.All() {
			f := p.Predict(net).FPS
			qf := PredictFPS(p, net)
			if qf < f {
				t.Fatalf("%s on %s: INT8 %v FPS slower than float %v", name, p.Name, qf, f)
			}
		}
	}
	voc, _, err := models.Build(models.TinyYoloVoc, 512, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	f := platform.OdroidXU4.Predict(voc).FPS
	qf := PredictFPS(platform.OdroidXU4, voc)
	if qf < 2*f {
		t.Fatalf("INT8 TinyYoloVoc on Odroid should gain >2x from cache residency: %v vs %v", qf, f)
	}
}

func TestFoldRejectsUnknownLayer(t *testing.T) {
	// A network with only a conv (no region) folds fine; Quantize then
	// rejects it for the missing region layer.
	text := "[net]\nwidth=16\nheight=16\nchannels=3\n[convolutional]\nbatch_normalize=1\nfilters=4\nsize=3\npad=1\nactivation=leaky\n"
	d, err := cfg.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	net, _, err := cfg.Build("x", d, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Quantize(net, randImages(1, 3, 16, 16, 5)); err == nil {
		t.Fatal("expected error for missing region layer")
	}
}

// TestQuantizeSymmetricRoundsHalfAwayFromZero pins the rounding rule at and
// next to the ties: 0.49999997 (the float32 just below ½) must round to 0 —
// adding ½ in float32 would round the sum up to 1 — while ±0.5, ±1.5 and
// ±2.5 round away from zero; both the multiply path and the divide path of
// a subnormal scale agree.
func TestQuantizeSymmetricRoundsHalfAwayFromZero(t *testing.T) {
	below := math.Nextafter32(0.5, 0)
	src := []float32{below, -below, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 126.5, -126.5,
		math.Nextafter32(126.5, 0), math.Nextafter32(1.5, 0), 0, float32(math.Copysign(0, -1))}
	want := []int8{0, 0, 1, -1, 2, -2, 3, -3, 127, -127, 126, 1, 0, 0}
	got := make([]int8, len(src))
	tensor.QuantizeSymmetric(src, 1, got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scale 1: %v quantize to %v, want %v", src, got, want)
	}
	// The ties ±0.5 … ±126.5 stay exact when scaled to the subnormal scale
	// 2^-147 (whose inverse overflows), so the divide path must round them
	// the same way.
	scale := float32(1.0 / (1 << 126) / (1 << 21))
	ties := src[2:10]
	scaled := make([]float32, len(ties))
	for i, v := range ties {
		scaled[i] = v * scale
	}
	tensor.QuantizeSymmetric(scaled, scale, got)
	if !reflect.DeepEqual(got[:len(ties)], want[2:10]) {
		t.Fatalf("subnormal scale: %v quantize to %v, want %v", ties, got[:len(ties)], want[2:10])
	}
}
