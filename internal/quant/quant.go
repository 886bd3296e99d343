// Package quant implements the paper's stated future work (§V): reducing
// the bit-width of the deployed network. It provides the two standard
// steps: folding batch normalization into convolution weights, and
// post-training symmetric INT8 quantization with per-output-channel weight
// scales and per-layer activation scales calibrated on sample images.
//
// Quantize returns an ordinary inference-only network.Network whose
// convolutions are QConv layers (int8 kernels in internal/tensor) between
// the source network's own pool and region layers. The engine replica
// pool and the HTTP micro-batcher therefore drive it exactly like the
// float32 network — that is what backs `dronet-serve -precision int8`.
//
// On the paper's platforms the benefit of INT8 is chiefly the 4× smaller
// weight working set (cache residency in the roofline model) plus wider
// integer SIMD; PredictFPS exposes the corresponding platform-model
// estimate.
package quant

import (
	"fmt"
	"math"

	"repro/internal/layers"
	"repro/internal/network"
	"repro/internal/platform"
	"repro/internal/tensor"
)

// FoldBatchNorm rewrites every batch-normalized convolution of net into an
// equivalent plain convolution:
//
//	w' = γ·w/√(σ²+ε),  b' = β + γ·(b−μ)/√(σ²+ε)   (per output channel)
//
// using the rolling inference statistics. The returned network shares no
// parameter storage with the input and produces identical inference
// outputs (up to float rounding).
func FoldBatchNorm(net *network.Network) (*network.Network, error) {
	out := network.New(net.Name+"-folded", net.InputW, net.InputH, net.InputC)
	rng := tensor.NewRNG(1)
	for i, l := range net.Layers {
		switch c := l.(type) {
		case *layers.Conv2D:
			nc, err := layers.NewConv2D(c.InShape(), c.Filters, c.Ksize, c.Stride, c.Pad, false, c.Act, rng)
			if err != nil {
				return nil, fmt.Errorf("quant: layer %d: %w", i, err)
			}
			fanIn := c.InShape().C * c.Ksize * c.Ksize
			for f := 0; f < c.Filters; f++ {
				scale, shift := float32(1), c.Biases.W.Data[f]
				if c.BatchNorm {
					inv := float32(1 / math.Sqrt(float64(c.RollingVar.Data[f])+1e-5))
					gamma := c.Scales.W.Data[f]
					scale = gamma * inv
					shift = c.Biases.W.Data[f] - gamma*c.RollingMean.Data[f]*inv
				}
				for k := 0; k < fanIn; k++ {
					nc.Weights.W.Data[f*fanIn+k] = c.Weights.W.Data[f*fanIn+k] * scale
				}
				nc.Biases.W.Data[f] = shift
			}
			if err := out.Add(nc); err != nil {
				return nil, err
			}
		case *layers.MaxPool:
			np, err := layers.NewMaxPool(c.InShape(), c.Size, c.Stride, c.Pad)
			if err != nil {
				return nil, err
			}
			if err := out.Add(np); err != nil {
				return nil, err
			}
		case *layers.Region:
			nr, err := layers.NewRegion(c.InShape(), c.Config())
			if err != nil {
				return nil, err
			}
			if err := out.Add(nr); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("quant: unsupported layer %T", l)
		}
	}
	return out, nil
}

// QConv is an INT8-quantized convolution: int8 weights with one scale per
// output channel, int8 activations with a calibrated per-layer scale, and
// int32 accumulation (tensor.ConvPrepackedInt8). Bias addition and
// activation run in float32, as do the values flowing between layers (the
// standard "fake-quant inference" data path, which isolates the accuracy
// effect of the 8-bit storage).
//
// QConv is an inference-only layers.Layer: Params is nil and Forward and
// Backward panic. It holds only read-only parameters (W, WScale, Bias,
// ActScale, requant, the weight pack) and no workspace — Infer writes the
// caller's output and carves the caller's arena — so one instance serves
// every replica concurrently. Infer loops the batch dimension with one
// ConvPrepackedInt8 call per image, and because int32 accumulation is
// exact, an N-image batch is byte-identical to N single-image calls.
type QConv struct {
	in, out layers.Shape
	Filters int
	Ksize   int
	Stride  int
	Pad     int
	Act     layers.Activation

	W        []int8    // Filters × fanIn
	WScale   []float32 // per output channel
	Bias     []float32
	ActScale float32   // input activation quantization scale
	requant  []float32 // WScale[f]*ActScale, precomputed per output channel
	// packed is W permuted and pre-packed for tensor.ConvPrepackedInt8,
	// built eagerly at quantization time: quantized weights are immutable
	// after Quantize, so the pack never invalidates and every replica shares
	// it.
	packed *tensor.PackedConvInt8
}

// Quantize converts a (BN-folded or BN-free) network to INT8 using the
// calibration tensors to set activation scales (max-abs observed per conv
// input). Networks with batch-normalized convolutions are folded first. The
// result is an inference-only network of QConv layers plus the source
// network's pool and region layers, which keep no inference state, so the
// source may keep running concurrently.
func Quantize(net *network.Network, calibration []*tensor.Tensor) (*network.Network, error) {
	if len(calibration) == 0 {
		return nil, fmt.Errorf("quant: need at least one calibration image")
	}
	for _, l := range net.Layers {
		if c, ok := l.(*layers.Conv2D); ok && c.BatchNorm {
			folded, err := FoldBatchNorm(net)
			if err != nil {
				return nil, err
			}
			net = folded
			break
		}
	}
	// Observe per-conv input ranges over the calibration set, running the
	// layers' inference pass one step at a time.
	maxAbs := make([]float32, len(net.Layers))
	var a tensor.Arena
	for _, img := range calibration {
		x := img
		for i, l := range net.Layers {
			if _, ok := l.(*layers.Conv2D); ok {
				if m := x.MaxAbs(); m > maxAbs[i] {
					maxAbs[i] = m
				}
			}
			s := l.OutShape()
			out := tensor.New(x.N, s.C, s.H, s.W)
			a.Reset()
			l.Infer(x, out, &a)
			x = out
		}
	}
	q := network.New(net.Name+"-int8", net.InputW, net.InputH, net.InputC)
	for i, l := range net.Layers {
		if c, ok := l.(*layers.Conv2D); ok {
			qc, err := quantizeConv(c, maxAbs[i])
			if err != nil {
				return nil, err
			}
			l = qc
		}
		if err := q.Add(l); err != nil {
			return nil, err
		}
	}
	if q.Region() == nil {
		return nil, fmt.Errorf("quant: network has no region layer")
	}
	return q, nil
}

func quantizeConv(c *layers.Conv2D, inMaxAbs float32) (*QConv, error) {
	if c.BatchNorm {
		return nil, fmt.Errorf("quant: conv still batch-normalized; fold first")
	}
	if inMaxAbs == 0 {
		inMaxAbs = 1
	}
	fanIn := c.InShape().C * c.Ksize * c.Ksize
	qc := &QConv{
		in: c.InShape(), out: c.OutShape(),
		Filters: c.Filters, Ksize: c.Ksize, Stride: c.Stride, Pad: c.Pad, Act: c.Act,
		W:        make([]int8, c.Filters*fanIn),
		WScale:   make([]float32, c.Filters),
		Bias:     make([]float32, c.Filters),
		ActScale: inMaxAbs / 127,
		requant:  make([]float32, c.Filters),
	}
	copy(qc.Bias, c.Biases.W.Data)
	for f := 0; f < c.Filters; f++ {
		row := c.Weights.W.Data[f*fanIn : (f+1)*fanIn]
		var m float32
		for _, v := range row {
			if a := abs32(v); a > m {
				m = a
			}
		}
		if m == 0 {
			m = 1
		}
		scale := m / 127
		qc.WScale[f] = scale
		qc.requant[f] = scale * qc.ActScale
		tensor.QuantizeSymmetric(row, scale, qc.W[f*fanIn:(f+1)*fanIn])
	}
	g := tensor.ConvGeom{C: qc.in.C, H: qc.in.H, W: qc.in.W, Ksize: qc.Ksize, Stride: qc.Stride, Pad: qc.Pad}
	qc.packed = tensor.PackConvInt8(g, qc.Filters, qc.W)
	return qc, nil
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

// Name implements layers.Layer.
func (qc *QConv) Name() string {
	return fmt.Sprintf("qconv %dx%d/%d %d %s", qc.Ksize, qc.Ksize, qc.Stride, qc.Filters, qc.Act)
}

// InShape implements layers.Layer.
func (qc *QConv) InShape() layers.Shape { return qc.in }

// OutShape implements layers.Layer.
func (qc *QConv) OutShape() layers.Shape { return qc.out }

// Params implements layers.Layer: a QConv has nothing to train.
func (qc *QConv) Params() []*layers.Param { return nil }

// Forward implements layers.Layer; a QConv is inference-only.
func (qc *QConv) Forward(x *tensor.Tensor) *tensor.Tensor {
	panic("quant: QConv.Forward: quantized convolutions are inference-only")
}

// Backward implements layers.Layer; a QConv is inference-only.
func (qc *QConv) Backward(dout *tensor.Tensor) *tensor.Tensor {
	panic("quant: QConv.Backward: quantized convolutions are inference-only")
}

// FLOPs implements layers.Layer: 2 ops per multiply-accumulate, as for the
// float convolution it replaces.
func (qc *QConv) FLOPs() int64 {
	return 2 * int64(qc.Filters) * int64(qc.in.C*qc.Ksize*qc.Ksize) * int64(qc.out.H*qc.out.W)
}

// IOBytes implements layers.Layer: float32 activations at the layer edges
// plus the int8 weights and their float32 scales and biases.
func (qc *QConv) IOBytes() int64 {
	return 4*int64(qc.in.Size()+qc.out.Size()) + qc.storageBytes()
}

// WeightBytes reports everything resident for this layer's weights: the
// INT8 parameter storage (scales and biases included) plus the permuted
// filters and their pre-packed panels (int16 k-pair layout, ~2× the raw
// int8 weights).
func (qc *QConv) WeightBytes() int64 { return qc.storageBytes() + qc.packed.Bytes() }

func (qc *QConv) storageBytes() int64 {
	return int64(len(qc.W)) + 4*int64(len(qc.WScale)+len(qc.Bias))
}

// CloneForInference implements layers.Layer: a QConv holds nothing but
// read-only parameters, so it is its own replica.
func (qc *QConv) CloneForInference() layers.Layer { return qc }

// Infer implements layers.Layer: per image, one tensor.ConvPrepackedInt8
// call quantizes the input activations with the calibrated scale into a
// zero-bordered pair plane carved from a, runs the int8 kernels on it in
// place, and stores the int32 sums requantized to float32 with the
// activation applied.
func (qc *QConv) Infer(x, out *tensor.Tensor, a *tensor.Arena) {
	plane := a.I16(qc.packed.PlaneLen())
	leaky := qc.Act == layers.ActLeaky
	for b := 0; b < x.N; b++ {
		tensor.ConvPrepackedInt8(qc.packed, x.Batch(b).Data, qc.ActScale, qc.requant, qc.Bias, leaky, plane, out.Batch(b).Data)
	}
}

// Dequantize expands quantized values back to float32: dst[i] = src[i]*scale.
// It inverts tensor.QuantizeSymmetric up to the guaranteed round-trip error
// of scale/2 per element (see FuzzQuantDequant).
func Dequantize(src []int8, scale float32, dst []float32) {
	for i, v := range src {
		dst[i] = float32(v) * scale
	}
}

// PredictFPS estimates the quantized network's throughput on a platform
// with the roofline of platform.Platform.LayerTime: the weight working set
// shrinks 4×, which moves large layers back into cache; integer arithmetic
// gets the platform's INT8 throughput bonus (conservatively 2× on these
// NEON/SSE-class CPUs), modelled as half the FLOPs; and int8 activations
// halve traffic vs float (conservative).
func PredictFPS(p platform.Platform, net *network.Network) float64 {
	const int8Speedup = 2
	var seconds float64
	for _, l := range net.Layers {
		var wBytes int64
		for _, prm := range l.Params() {
			wBytes += int64(prm.W.Len()) // 1 byte per weight
		}
		seconds += p.LayerTime(l.FLOPs()/int8Speedup, wBytes, l.IOBytes()/4*2)
	}
	if seconds <= 0 {
		return 0
	}
	return 1 / seconds
}
