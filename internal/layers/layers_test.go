package layers

import (
	"math"
	"testing"

	"repro/internal/detect"
	"repro/internal/tensor"
)

// sseLoss and sseGrad implement L = 0.5·Σ(out−target)² used to drive
// gradient checks through conv and maxpool layers.
func sseLoss(out, target *tensor.Tensor) float64 {
	var l float64
	for i := range out.Data {
		d := float64(out.Data[i] - target.Data[i])
		l += 0.5 * d * d
	}
	return l
}

func sseGrad(out, target *tensor.Tensor) *tensor.Tensor {
	g := tensor.New(out.N, out.C, out.H, out.W)
	for i := range out.Data {
		g.Data[i] = out.Data[i] - target.Data[i]
	}
	return g
}

// checkInputGrad compares the analytic input gradient of layer l against
// central finite differences on a fixed input.
func checkInputGrad(t *testing.T, l Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	rng := tensor.NewRNG(99)
	out := l.Forward(x)
	target := tensor.New(out.N, out.C, out.H, out.W)
	rng.FillUniform(target.Data, -1, 1)
	dx := l.Backward(sseGrad(out, target))

	const eps = 1e-2
	for _, i := range sampleIndices(rng, x.Len(), 24) {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := sseLoss(l.Forward(x), target)
		x.Data[i] = orig - eps
		lm := sseLoss(l.Forward(x), target)
		x.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		ana := float64(dx.Data[i])
		if !gradClose(num, ana, tol) {
			t.Fatalf("%s: input grad[%d]: numeric %v vs analytic %v", l.Name(), i, num, ana)
		}
	}
}

// checkParamGrad compares analytic parameter gradients against central
// finite differences.
func checkParamGrad(t *testing.T, l Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	rng := tensor.NewRNG(77)
	out := l.Forward(x)
	target := tensor.New(out.N, out.C, out.H, out.W)
	rng.FillUniform(target.Data, -1, 1)
	for _, p := range l.Params() {
		p.G.Zero()
	}
	l.Forward(x)
	l.Backward(sseGrad(l.Forward(x), target))

	const eps = 1e-2
	for _, p := range l.Params() {
		for _, i := range sampleIndices(rng, p.W.Len(), 10) {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			lp := sseLoss(l.Forward(x), target)
			p.W.Data[i] = orig - eps
			lm := sseLoss(l.Forward(x), target)
			p.W.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			ana := float64(p.G.Data[i])
			if !gradClose(num, ana, tol) {
				t.Fatalf("%s: %s grad[%d]: numeric %v vs analytic %v", l.Name(), p.Name, i, num, ana)
			}
		}
	}
}

func sampleIndices(rng *tensor.RNG, n, k int) []int {
	if n <= k {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = rng.Intn(n)
	}
	return idx
}

func gradClose(num, ana, tol float64) bool {
	diff := math.Abs(num - ana)
	scale := math.Max(1, math.Max(math.Abs(num), math.Abs(ana)))
	return diff/scale < tol
}

// infer runs l's inference pass on x into a fresh output tensor over a
// fresh scratch arena.
func infer(l Layer, x *tensor.Tensor) *tensor.Tensor {
	s := l.OutShape()
	out := tensor.New(x.N, s.C, s.H, s.W)
	l.Infer(x, out, new(tensor.Arena))
	return out
}

func randInput(rng *tensor.RNG, n, c, h, w int) *tensor.Tensor {
	x := tensor.New(n, c, h, w)
	rng.FillUniform(x.Data, -1, 1)
	return x
}

func TestConvOutputShape(t *testing.T) {
	rng := tensor.NewRNG(1)
	c, err := NewConv2D(Shape{C: 3, H: 8, W: 8}, 16, 3, 1, 1, true, ActLeaky, rng)
	if err != nil {
		t.Fatal(err)
	}
	if c.OutShape() != (Shape{C: 16, H: 8, W: 8}) {
		t.Fatalf("OutShape = %+v", c.OutShape())
	}
	out := infer(c, randInput(rng, 2, 3, 8, 8))
	if out.N != 2 || out.C != 16 || out.H != 8 || out.W != 8 {
		t.Fatalf("forward shape = %v", out)
	}
}

func TestConvRejectsBadConfig(t *testing.T) {
	rng := tensor.NewRNG(1)
	if _, err := NewConv2D(Shape{C: 1, H: 4, W: 4}, 0, 3, 1, 1, false, ActLinear, rng); err == nil {
		t.Fatal("expected error for zero filters")
	}
	if _, err := NewConv2D(Shape{C: 1, H: 2, W: 2}, 1, 5, 1, 0, false, ActLinear, rng); err == nil {
		t.Fatal("expected error for kernel larger than input")
	}
}

func TestConvKnownValues(t *testing.T) {
	// A 1-filter 1x1 conv with weight 2 and bias 1 is y = 2x + 1.
	rng := tensor.NewRNG(1)
	c, err := NewConv2D(Shape{C: 1, H: 2, W: 2}, 1, 1, 1, 0, false, ActLinear, rng)
	if err != nil {
		t.Fatal(err)
	}
	c.Weights.W.Data[0] = 2
	c.Biases.W.Data[0] = 1
	x := tensor.New(1, 1, 2, 2)
	copy(x.Data, []float32{1, 2, 3, 4})
	out := infer(c, x)
	want := []float32{3, 5, 7, 9}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("out = %v, want %v", out.Data, want)
		}
	}
}

func TestConvLeakyActivation(t *testing.T) {
	rng := tensor.NewRNG(1)
	c, err := NewConv2D(Shape{C: 1, H: 1, W: 2}, 1, 1, 1, 0, false, ActLeaky, rng)
	if err != nil {
		t.Fatal(err)
	}
	c.Weights.W.Data[0] = 1
	c.Biases.W.Data[0] = 0
	x := tensor.New(1, 1, 1, 2)
	copy(x.Data, []float32{-1, 1})
	out := infer(c, x)
	if math.Abs(float64(out.Data[0]+0.1)) > 1e-6 || out.Data[1] != 1 {
		t.Fatalf("leaky output = %v", out.Data)
	}
}

func TestConvGradients(t *testing.T) {
	rng := tensor.NewRNG(3)
	c, err := NewConv2D(Shape{C: 2, H: 5, W: 5}, 3, 3, 1, 1, false, ActLeaky, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := randInput(rng, 2, 2, 5, 5)
	checkInputGrad(t, c, x, 2e-2)
	checkParamGrad(t, c, x, 2e-2)
}

func TestConvStridedGradients(t *testing.T) {
	rng := tensor.NewRNG(4)
	c, err := NewConv2D(Shape{C: 1, H: 6, W: 6}, 2, 3, 2, 1, false, ActLinear, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := randInput(rng, 1, 1, 6, 6)
	checkInputGrad(t, c, x, 2e-2)
	checkParamGrad(t, c, x, 2e-2)
}

func TestConvBatchNormGradients(t *testing.T) {
	rng := tensor.NewRNG(5)
	c, err := NewConv2D(Shape{C: 2, H: 4, W: 4}, 3, 3, 1, 1, true, ActLeaky, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := randInput(rng, 3, 2, 4, 4)
	checkInputGrad(t, c, x, 4e-2)
	checkParamGrad(t, c, x, 4e-2)
}

func TestConvPointwiseGradients(t *testing.T) {
	rng := tensor.NewRNG(6)
	c, err := NewConv2D(Shape{C: 4, H: 3, W: 3}, 2, 1, 1, 0, false, ActLeaky, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := randInput(rng, 2, 4, 3, 3)
	checkInputGrad(t, c, x, 2e-2)
	checkParamGrad(t, c, x, 2e-2)
}

func TestConvBatchNormTrainVsInferConsistency(t *testing.T) {
	// After many training forwards on the same distribution, inference-mode
	// output should approximate training-mode output.
	rng := tensor.NewRNG(8)
	c, err := NewConv2D(Shape{C: 1, H: 4, W: 4}, 2, 3, 1, 1, true, ActLinear, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := randInput(rng, 4, 1, 4, 4)
	var trainOut *tensor.Tensor
	for i := 0; i < 1200; i++ {
		trainOut = c.Forward(x)
	}
	train := trainOut.Clone()
	inferred := infer(c, x)
	var maxDiff float64
	for i := range train.Data {
		if d := math.Abs(float64(train.Data[i] - inferred.Data[i])); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 0.05 {
		t.Fatalf("train/infer divergence %v after rolling-stat convergence", maxDiff)
	}
}

func TestMaxPoolForwardKnown(t *testing.T) {
	p, err := NewMaxPool(Shape{C: 1, H: 4, W: 4}, 2, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if p.OutShape() != (Shape{C: 1, H: 2, W: 2}) {
		t.Fatalf("OutShape = %+v", p.OutShape())
	}
	x := tensor.New(1, 1, 4, 4)
	copy(x.Data, []float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	})
	out := infer(p, x)
	want := []float32{6, 8, 14, 16}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("out = %v, want %v", out.Data, want)
		}
	}
}

func TestMaxPoolStride1KeepsSize(t *testing.T) {
	// Tiny-YOLO's 6th maxpool: size 2, stride 1, darknet padding keeps 13x13.
	p, err := NewMaxPool(Shape{C: 1, H: 13, W: 13}, 2, 1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if p.OutShape() != (Shape{C: 1, H: 13, W: 13}) {
		t.Fatalf("OutShape = %+v, want 13x13", p.OutShape())
	}
}

func TestMaxPoolOddInputCeilMode(t *testing.T) {
	// Darknet 2x2/2 pooling on odd inputs rounds up (e.g. 13 -> 7).
	p, err := NewMaxPool(Shape{C: 1, H: 13, W: 13}, 2, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if p.OutShape().H != 7 {
		t.Fatalf("OutShape.H = %d, want 7", p.OutShape().H)
	}
}

func TestMaxPoolGradient(t *testing.T) {
	rng := tensor.NewRNG(9)
	p, err := NewMaxPool(Shape{C: 2, H: 6, W: 6}, 2, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	x := randInput(rng, 2, 2, 6, 6)
	checkInputGrad(t, p, x, 2e-2)
}

func TestMaxPoolGradientRoutesToArgmax(t *testing.T) {
	p, err := NewMaxPool(Shape{C: 1, H: 2, W: 2}, 2, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 1, 2, 2)
	copy(x.Data, []float32{1, 9, 2, 3})
	p.Forward(x)
	dout := tensor.New(1, 1, 1, 1)
	dout.Data[0] = 5
	dx := p.Backward(dout)
	want := []float32{0, 5, 0, 0}
	for i := range want {
		if dx.Data[i] != want[i] {
			t.Fatalf("dx = %v, want %v", dx.Data, want)
		}
	}
}

func testAnchors() [][2]float64 {
	return [][2]float64{{1, 1}, {2.5, 2.5}}
}

func newTestRegion(t *testing.T, grid, classes int, burnIn int) *Region {
	t.Helper()
	cfg := DefaultRegionConfig(classes, testAnchors())
	cfg.BurnIn = burnIn
	r, err := NewRegion(Shape{C: len(testAnchors()) * (5 + classes), H: grid, W: grid}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRegionRejectsChannelMismatch(t *testing.T) {
	cfg := DefaultRegionConfig(1, testAnchors())
	if _, err := NewRegion(Shape{C: 13, H: 4, W: 4}, cfg); err == nil {
		t.Fatal("expected channel mismatch error")
	}
}

func TestRegionForwardActivations(t *testing.T) {
	r := newTestRegion(t, 3, 1, 0)
	rng := tensor.NewRNG(10)
	x := randInput(rng, 1, r.InShape().C, 3, 3)
	out := infer(r, x)
	d := out.Data
	for a := 0; a < 2; a++ {
		for row := 0; row < 3; row++ {
			for col := 0; col < 3; col++ {
				for _, e := range []int{0, 1, 4} { // σ entries
					v := d[r.entry(a, e, row, col)]
					if v <= 0 || v >= 1 {
						t.Fatalf("sigmoid entry out of (0,1): %v", v)
					}
				}
				if p := d[r.entry(a, 5, row, col)]; p != 1 {
					t.Fatalf("single-class prob = %v, want 1", p)
				}
				for _, e := range []int{2, 3} { // linear entries
					if d[r.entry(a, e, row, col)] != x.Data[r.entry(a, e, row, col)] {
						t.Fatal("tw/th must pass through unactivated")
					}
				}
			}
		}
	}
}

func TestRegionDecodeRoundTrip(t *testing.T) {
	// Construct an input whose decoded box is exactly a chosen truth box,
	// with high confidence, and verify Decode recovers it.
	r := newTestRegion(t, 4, 1, 0)
	x := tensor.New(1, r.InShape().C, 4, 4)
	x.Fill(-8) // all confidences σ(-8)≈0
	truth := detect.Box{X: 0.62, Y: 0.38, W: 0.25, H: 0.25}
	col, row, a := 2, 1, 0
	// σ(tx) must equal truth.X*4-2 = 0.48 → tx = logit(0.48)
	logit := func(p float64) float32 { return float32(math.Log(p / (1 - p))) }
	d := x.Data
	d[r.entry(a, 0, row, col)] = logit(0.48)
	d[r.entry(a, 1, row, col)] = logit(0.52)
	d[r.entry(a, 2, row, col)] = float32(math.Log(truth.W * 4 / testAnchors()[a][0]))
	d[r.entry(a, 3, row, col)] = float32(math.Log(truth.H * 4 / testAnchors()[a][1]))
	d[r.entry(a, 4, row, col)] = 8 // σ ≈ 0.9997
	out := infer(r, x)
	dets := r.Decode(out, 0, 0.5)
	if len(dets) != 1 {
		t.Fatalf("got %d detections, want 1", len(dets))
	}
	if iou := detect.IoU(dets[0].Box, truth); iou < 0.99 {
		t.Fatalf("decoded box %+v has IoU %v with truth %+v", dets[0].Box, iou, truth)
	}
	if dets[0].Score < 0.99 {
		t.Fatalf("score = %v", dets[0].Score)
	}
}

func TestRegionLossDecreasesConfWithoutObjects(t *testing.T) {
	// With no truths, the only gradient is the no-object confidence push.
	r := newTestRegion(t, 3, 1, 0)
	rng := tensor.NewRNG(12)
	x := randInput(rng, 1, r.InShape().C, 3, 3)
	r.SetTruths([][]Truth{{}})
	r.Forward(x)
	loss0 := r.Loss
	delta := r.Backward(nil)
	// One SGD step on the input should reduce the loss.
	x.AddScaled(-0.5, delta)
	r.SetTruths([][]Truth{{}})
	r.Forward(x)
	if r.Loss >= loss0 {
		t.Fatalf("loss did not decrease: %v -> %v", loss0, r.Loss)
	}
}

func TestRegionInputGradientNumeric(t *testing.T) {
	// Rescore is disabled because Darknet treats the IoU confidence target
	// as a constant (stop-gradient), which a finite-difference check cannot.
	cfg := DefaultRegionConfig(1, testAnchors())
	cfg.BurnIn = 0
	cfg.Rescore = false
	r, err := NewRegion(Shape{C: len(testAnchors()) * 6, H: 3, W: 3}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(13)
	x := randInput(rng, 1, r.InShape().C, 3, 3)
	truths := [][]Truth{{
		{Box: detect.Box{X: 0.5, Y: 0.5, W: 0.3, H: 0.28}},
		{Box: detect.Box{X: 0.18, Y: 0.82, W: 0.12, H: 0.1}},
	}}
	r.SetTruths(truths)
	r.Forward(x)
	ana := r.Backward(nil).Clone()

	const eps = 5e-3
	for _, i := range sampleIndices(rng, x.Len(), 40) {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		r.SetTruths(truths)
		r.Forward(x)
		lp := r.Loss
		x.Data[i] = orig - eps
		r.SetTruths(truths)
		r.Forward(x)
		lm := r.Loss
		x.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if !gradClose(num, float64(ana.Data[i]), 3e-2) {
			t.Fatalf("region grad[%d]: numeric %v vs analytic %v", i, num, ana.Data[i])
		}
	}
}

func TestRegionMultiClassSoftmax(t *testing.T) {
	cfg := DefaultRegionConfig(3, testAnchors())
	cfg.BurnIn = 0
	r, err := NewRegion(Shape{C: 2 * 8, H: 2, W: 2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(14)
	x := randInput(rng, 1, 16, 2, 2)
	out := infer(r, x)
	for a := 0; a < 2; a++ {
		var sum float64
		for c := 0; c < 3; c++ {
			sum += float64(out.Data[r.entry(a, 5+c, 0, 0)])
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("class probs sum to %v", sum)
		}
	}
}

func TestRegionBurnInCounter(t *testing.T) {
	r := newTestRegion(t, 2, 1, 100)
	rng := tensor.NewRNG(15)
	x := randInput(rng, 3, r.InShape().C, 2, 2)
	r.SetTruths([][]Truth{{}, {}, {}})
	r.Forward(x)
	if r.Seen() != 3 {
		t.Fatalf("Seen = %d, want 3", r.Seen())
	}
	r.SetSeen(50)
	if r.Seen() != 50 {
		t.Fatalf("SetSeen failed: %d", r.Seen())
	}
}
