package layers

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/tensor"
)

// Activation selects the element-wise non-linearity applied after a
// convolution (and its batch norm, when enabled).
type Activation int

// Supported activations. Darknet's tiny-YOLO family only uses leaky and
// linear (the final 1x1 prediction layer).
const (
	ActLinear Activation = iota
	ActLeaky
)

func (a Activation) String() string {
	if a == ActLeaky {
		return "leaky"
	}
	return "linear"
}

// Conv2D is a 2-D convolution with square kernels, optional batch
// normalization, and an optional activation — the workhorse layer of every
// model in the paper. Inference runs each image as one implicit-GEMM pass
// (tensor.ConvPrepacked: B panels read in place or packed straight from the
// input, batch norm + bias + activation applied to each output tile), a
// padded stride-1 layer on a zero-bordered copy of the image, and with a
// 2×2/2 max-pool after it as one pass (InferPool2x2); training
// lowers to im2col + GEMM per image, exactly like Darknet, and keeps the
// intermediates Backward needs.
type Conv2D struct {
	in, out   Shape
	Filters   int
	Ksize     int
	Stride    int
	Pad       int
	BatchNorm bool
	Act       Activation

	Weights *Param // Filters × (inC·k·k)
	Biases  *Param // Filters (β when BatchNorm)
	Scales  *Param // Filters (γ), BatchNorm only

	// Rolling statistics for inference-time batch norm.
	RollingMean, RollingVar *tensor.Tensor

	// pack caches the filter matrix pre-packed as the GEMM A operand
	// (tensor.PackA): built on the first Infer (double-checked under
	// packMu), dropped whenever the weights mutate (InvalidateWeightPack),
	// rebuilt on the next Infer. Every replica runs this one layer, so the
	// pack is built once per model.
	packMu sync.Mutex
	pack   atomic.Pointer[tensor.PackedA]

	st convState
}

// convState is the training workspace of a Conv2D: everything Forward and
// Backward mutate, as opposed to the read-only parameters above. Infer
// touches none of it; buffers are (re)allocated lazily on first use.
type convState struct {
	x        *tensor.Tensor // input reference
	out      *tensor.Tensor // post-activation output
	preAct   *tensor.Tensor // pre-activation (post-BN) values
	preBN    *tensor.Tensor // pre-BN conv outputs (BatchNorm only)
	xhat     *tensor.Tensor // normalized values (BatchNorm only)
	batchMu  []float32
	batchVar []float32
	col      []float32 // training im2col scratch
	dx       *tensor.Tensor
}

const bnEps = 1e-5

// NewConv2D creates a convolution layer for the given input shape.
func NewConv2D(in Shape, filters, ksize, stride, pad int, batchNorm bool, act Activation, rng *tensor.RNG) (*Conv2D, error) {
	if filters <= 0 || ksize <= 0 || stride <= 0 || pad < 0 {
		return nil, fmt.Errorf("layers: invalid conv config filters=%d ksize=%d stride=%d pad=%d", filters, ksize, stride, pad)
	}
	outH := tensor.ConvOutSize(in.H, ksize, stride, pad)
	outW := tensor.ConvOutSize(in.W, ksize, stride, pad)
	if outH <= 0 || outW <= 0 {
		return nil, fmt.Errorf("layers: conv %dx%d/%d pad %d collapses %dx%d input", ksize, ksize, stride, pad, in.H, in.W)
	}
	c := &Conv2D{
		in:        in,
		out:       Shape{C: filters, H: outH, W: outW},
		Filters:   filters,
		Ksize:     ksize,
		Stride:    stride,
		Pad:       pad,
		BatchNorm: batchNorm,
		Act:       act,
	}
	fanIn := in.C * ksize * ksize
	w := tensor.New(1, 1, filters, fanIn)
	rng.FillHe(w.Data, fanIn)
	c.Weights = newParam("weights", w, true)
	c.Biases = newParam("biases", tensor.NewVec(filters), false)
	if batchNorm {
		s := tensor.NewVec(filters)
		s.Fill(1)
		c.Scales = newParam("scales", s, false)
		c.RollingMean = tensor.NewVec(filters)
		c.RollingVar = tensor.NewVec(filters)
		c.RollingVar.Fill(1)
	}
	return c, nil
}

// CloneForInference implements Layer: Infer reads only the parameters and
// the shared pack, so the layer is its own replica.
func (c *Conv2D) CloneForInference() Layer { return c }

// inferencePack returns the pre-packed filter matrix, building it on first
// use. Concurrent replicas race benignly to the double-checked lock;
// whoever wins publishes one slab for everyone.
func (c *Conv2D) inferencePack() *tensor.PackedA {
	if pre := c.pack.Load(); pre != nil {
		return pre
	}
	c.packMu.Lock()
	defer c.packMu.Unlock()
	if pre := c.pack.Load(); pre != nil {
		return pre
	}
	k := c.in.C * c.Ksize * c.Ksize
	pre := tensor.PackA(false, c.Filters, k, 1, c.Weights.W.Data, k)
	c.pack.Store(pre)
	return pre
}

// InvalidateWeightPack drops the pre-packed filter cache. Every mutation of
// Weights.W — an optimizer step, loading a checkpoint, folding batch norm —
// must call it, or inference would keep serving the stale pack.
func (c *Conv2D) InvalidateWeightPack() { c.pack.Store(nil) }

// WeightBytes reports the layer's resident weight footprint: four bytes per
// learnable parameter plus the pre-packed filter cache when built, so
// model-level accounting (network.Network.WeightBytes, /healthz) does not
// under-report memory.
func (c *Conv2D) WeightBytes() int64 {
	var total int64
	for _, p := range c.Params() {
		total += 4 * int64(p.W.Len())
	}
	if pre := c.pack.Load(); pre != nil {
		total += pre.Bytes()
	}
	return total
}

// ensureCol returns the training path's im2col scratch buffer for one image.
func (c *Conv2D) ensureCol() []float32 {
	if n := c.in.C * c.Ksize * c.Ksize * c.out.H * c.out.W; len(c.st.col) != n {
		c.st.col = make([]float32, n)
	}
	return c.st.col
}

// Name implements Layer.
func (c *Conv2D) Name() string {
	bn := ""
	if c.BatchNorm {
		bn = " bn"
	}
	return fmt.Sprintf("conv %dx%d/%d %d%s %s", c.Ksize, c.Ksize, c.Stride, c.Filters, bn, c.Act)
}

// InShape implements Layer.
func (c *Conv2D) InShape() Shape { return c.in }

// OutShape implements Layer.
func (c *Conv2D) OutShape() Shape { return c.out }

// Params implements Layer.
func (c *Conv2D) Params() []*Param {
	p := []*Param{c.Weights, c.Biases}
	if c.BatchNorm {
		p = append(p, c.Scales)
	}
	return p
}

// FLOPs implements Layer: 2 ops per multiply-accumulate.
func (c *Conv2D) FLOPs() int64 {
	macs := int64(c.Filters) * int64(c.in.C*c.Ksize*c.Ksize) * int64(c.out.H*c.out.W)
	return 2 * macs
}

// IOBytes implements Layer.
func (c *Conv2D) IOBytes() int64 {
	weights := int64(c.Weights.W.Len() + c.Filters)
	return 4 * (int64(c.in.Size()) + int64(c.out.Size()) + weights)
}

// Infer implements Layer: tensor.ConvPrepacked per image against the shared
// pre-packed filters — implicit im2col, GEMM, and batch norm + bias +
// activation on each output tile, with no column matrix and no further pass
// over out. A padded stride-1 layer first copies each image into a
// zero-bordered plane carved from a (tensor.PadCHW) and runs the Pad 0
// geometry on it, so that every full panel inside an output row is read in
// place. network.Network's plan calls it only for a conv whose output no
// fusable pool reads; before a 2×2/2 pool that FusesPool accepts it runs
// InferPool2x2, the same pass with the pool inside.
func (c *Conv2D) Infer(x, out *tensor.Tensor, a *tensor.Arena) {
	c.infer(x, out, a, tensor.ConvPrepacked)
}

// FusesPool reports whether p, reading this layer's output, can run inside
// its inference pass (InferPool2x2): p is a 2×2 stride-2 pool whose windows
// all lie inside an even-sized output, and the fan-in fits one K block
// (tensor.ConvGeom.Pool2x2Fused). It depends on geometry only.
func (c *Conv2D) FusesPool(p *MaxPool) bool {
	return p.Size == 2 && p.Stride == 2 && p.Pad <= 1 && p.in == c.out && c.geom().Pool2x2Fused()
}

// InferPool2x2 is Infer followed by a 2×2 stride-2 max-pool of its output,
// in one pass per image (tensor.ConvPool2x2Prepacked): out is x.N ×
// Filters × OutH/2 × OutW/2, and the full-resolution output is never
// stored. It equals Infer and then the pool's Infer bit for bit; a pool the
// layer FusesPool accepts is the only one it may stand in for.
func (c *Conv2D) InferPool2x2(x, out *tensor.Tensor, a *tensor.Arena) {
	c.infer(x, out, a, tensor.ConvPool2x2Prepacked)
}

func (c *Conv2D) geom() tensor.ConvGeom {
	return tensor.ConvGeom{C: c.in.C, H: c.in.H, W: c.in.W, Ksize: c.Ksize, Stride: c.Stride, Pad: c.Pad}
}

// infer runs conv, ConvPrepacked or ConvPool2x2Prepacked, on every image.
func (c *Conv2D) infer(x, out *tensor.Tensor, a *tensor.Arena, conv func(*tensor.PackedA, tensor.ConvGeom, []float32, tensor.Epilogue, []float32)) {
	geom := c.geom()
	ep := tensor.Epilogue{Bias: c.Biases.W.Data, Leaky: c.Act == ActLeaky}
	if c.BatchNorm {
		ep.Mean, ep.Scale, ep.InvStd = c.RollingMean.Data, c.Scales.W.Data, c.inferInvStd(a)
	}
	pre := c.inferencePack()
	var plane []float32
	if c.Stride == 1 && c.Pad > 0 {
		geom.H, geom.W, geom.Pad = c.in.H+2*c.Pad, c.in.W+2*c.Pad, 0
		plane = a.F32(geom.C * geom.H * geom.W)
	}
	for b := 0; b < x.N; b++ {
		in := x.Batch(b).Data
		if plane != nil {
			tensor.PadCHW(in, c.in.C, c.in.H, c.in.W, c.Pad, plane)
			in = plane
		}
		conv(pre, geom, in, ep, out.Batch(b).Data)
	}
}

// inferInvStd computes 1/√(σ²+ε) per filter from the rolling variance into
// scratch carved from a. It is recomputed every pass rather than cached, so
// updates to the rolling statistics need no invalidation hook.
func (c *Conv2D) inferInvStd(a *tensor.Arena) []float32 {
	inv := a.F32(c.Filters)
	for f := range inv {
		inv[f] = 1 / sqrt32(c.RollingVar.Data[f]+bnEps)
	}
	return inv
}

// Forward implements Layer: im2col + GEMM per image, exactly like Darknet,
// then batch-statistics batch norm, bias and activation as separate passes,
// keeping preBN and preAct for Backward.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	c.st.x = x
	out := ensure(&c.st.out, x.N, c.out)
	m := c.Filters
	k := c.in.C * c.Ksize * c.Ksize
	n := c.out.H * c.out.W
	pointwise := c.Ksize == 1 && c.Stride == 1 && c.Pad == 0
	var col []float32
	if !pointwise {
		col = c.ensureCol()
	}
	for b := 0; b < x.N; b++ {
		lowered := x.Batch(b).Data
		if !pointwise {
			tensor.Im2col(lowered, c.in.C, c.in.H, c.in.W, c.Ksize, c.Stride, c.Pad, col)
			lowered = col
		}
		tensor.Gemm(false, false, m, n, k, 1, c.Weights.W.Data, k, lowered, n, 0, out.Batch(b).Data, n)
	}
	if c.BatchNorm {
		c.st.preBN = ensureLike(c.st.preBN, out)
		c.st.preBN.Copy(out)
		c.forwardBatchNormTrain(out)
	}
	// Add bias (β for batch norm).
	for b := 0; b < out.N; b++ {
		d := out.Batch(b).Data
		for f := 0; f < m; f++ {
			bias := c.Biases.W.Data[f]
			seg := d[f*n : (f+1)*n]
			for i := range seg {
				seg[i] += bias
			}
		}
	}
	c.st.preAct = ensureLike(c.st.preAct, out)
	c.st.preAct.Copy(out)
	if c.Act == ActLeaky {
		tensor.Leaky(out.Data)
	}
	return out
}

func ensureLike(t, like *tensor.Tensor) *tensor.Tensor {
	return tensor.Reslice(t, like.N, like.C, like.H, like.W)
}

// forwardBatchNormTrain normalizes out in place using batch statistics and
// updates the rolling statistics (Darknet momentum 0.99/0.01).
func (c *Conv2D) forwardBatchNormTrain(out *tensor.Tensor) {
	spatial := c.out.H * c.out.W
	mTotal := float32(out.N * spatial)
	c.st.xhat = ensureLike(c.st.xhat, out)
	if len(c.st.batchMu) != c.Filters {
		c.st.batchMu = make([]float32, c.Filters)
		c.st.batchVar = make([]float32, c.Filters)
	}
	for f := 0; f < c.Filters; f++ {
		var sum float64
		for b := 0; b < out.N; b++ {
			seg := out.Batch(b).Data[f*spatial : (f+1)*spatial]
			for _, v := range seg {
				sum += float64(v)
			}
		}
		mu := float32(sum / float64(mTotal))
		var vsum float64
		for b := 0; b < out.N; b++ {
			seg := out.Batch(b).Data[f*spatial : (f+1)*spatial]
			for _, v := range seg {
				d := float64(v - mu)
				vsum += d * d
			}
		}
		variance := float32(vsum / float64(mTotal))
		c.st.batchMu[f] = mu
		c.st.batchVar[f] = variance
		c.RollingMean.Data[f] = 0.99*c.RollingMean.Data[f] + 0.01*mu
		c.RollingVar.Data[f] = 0.99*c.RollingVar.Data[f] + 0.01*variance
		inv := 1 / sqrt32(variance+bnEps)
		gamma := c.Scales.W.Data[f]
		for b := 0; b < out.N; b++ {
			seg := out.Batch(b).Data[f*spatial : (f+1)*spatial]
			xh := c.st.xhat.Batch(b).Data[f*spatial : (f+1)*spatial]
			for i, v := range seg {
				h := (v - mu) * inv
				xh[i] = h
				seg[i] = gamma * h
			}
		}
	}
}

func sqrt32(x float32) float32 {
	if x <= 0 {
		return 0
	}
	return float32(math.Sqrt(float64(x)))
}

// Backward implements Layer.
func (c *Conv2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	out := c.st.out
	delta := dout.Clone() // gradient w.r.t. pre-activation, refined in stages
	if c.Act == ActLeaky {
		tensor.LeakyGrad(out.Data, delta.Data)
	}
	spatial := c.out.H * c.out.W
	// Bias gradient.
	for b := 0; b < delta.N; b++ {
		d := delta.Batch(b).Data
		for f := 0; f < c.Filters; f++ {
			seg := d[f*spatial : (f+1)*spatial]
			var s float64
			for _, v := range seg {
				s += float64(v)
			}
			c.Biases.G.Data[f] += float32(s)
		}
	}
	if c.BatchNorm {
		c.backwardBatchNorm(delta)
	}
	// Weight gradient and input gradient per image.
	m := c.Filters
	k := c.in.C * c.Ksize * c.Ksize
	n := spatial
	dx := ensureDX(&c.st.dx, c.st.x)
	dx.Zero()
	pointwise := c.Ksize == 1 && c.Stride == 1 && c.Pad == 0
	var col, dcol []float32
	if !pointwise {
		// One buffer serves both: col's contents are consumed (dW GEMM)
		// before dcol is zeroed.
		col = c.ensureCol()
		dcol = col
	}
	for b := 0; b < delta.N; b++ {
		src := c.st.x.Batch(b).Data
		lowered := src
		if !pointwise {
			tensor.Im2col(src, c.in.C, c.in.H, c.in.W, c.Ksize, c.Stride, c.Pad, col)
			lowered = col
		}
		d := delta.Batch(b).Data
		// dW += d · colᵀ
		tensor.Gemm(false, true, m, k, n, 1, d, n, lowered, n, 1, c.Weights.G.Data, k)
		// dcol = Wᵀ · d ; scatter back with col2im.
		dxb := dx.Batch(b).Data
		if pointwise {
			tensor.Gemm(true, false, k, n, m, 1, c.Weights.W.Data, k, d, n, 1, dxb, n)
		} else {
			for i := range dcol {
				dcol[i] = 0
			}
			tensor.Gemm(true, false, k, n, m, 1, c.Weights.W.Data, k, d, n, 0, dcol, n)
			tensor.Col2im(dcol, c.in.C, c.in.H, c.in.W, c.Ksize, c.Stride, c.Pad, dxb)
		}
	}
	return dx
}

func ensureDX(t **tensor.Tensor, like *tensor.Tensor) *tensor.Tensor {
	*t = tensor.Reslice(*t, like.N, like.C, like.H, like.W)
	return *t
}

// backwardBatchNorm converts delta (gradient w.r.t. the normalized+scaled
// output γ·x̂) into the gradient w.r.t. the pre-BN convolution output, and
// accumulates γ gradients. β's gradient equals the bias gradient already
// accumulated above.
func (c *Conv2D) backwardBatchNorm(delta *tensor.Tensor) {
	spatial := c.out.H * c.out.W
	mTotal := float32(delta.N * spatial)
	for f := 0; f < c.Filters; f++ {
		gamma := c.Scales.W.Data[f]
		inv := 1 / sqrt32(c.st.batchVar[f]+bnEps)
		var sumD, sumDX float64
		for b := 0; b < delta.N; b++ {
			d := delta.Batch(b).Data[f*spatial : (f+1)*spatial]
			xh := c.st.xhat.Batch(b).Data[f*spatial : (f+1)*spatial]
			for i, v := range d {
				sumD += float64(v)
				sumDX += float64(v) * float64(xh[i])
			}
		}
		c.Scales.G.Data[f] += float32(sumDX)
		meanD := float32(sumD) / mTotal
		meanDX := float32(sumDX) / mTotal
		for b := 0; b < delta.N; b++ {
			d := delta.Batch(b).Data[f*spatial : (f+1)*spatial]
			xh := c.st.xhat.Batch(b).Data[f*spatial : (f+1)*spatial]
			for i := range d {
				d[i] = gamma * inv * (d[i] - meanD - xh[i]*meanDX)
			}
		}
	}
}
