// Package layers implements the neural-network layers of the Darknet-style
// framework: convolution (with optional batch normalization and leaky-ReLU),
// max-pooling, and the YOLOv2-style region detection layer that both decodes
// predictions and produces the YOLO training loss.
//
// Layers are created with their input shape fixed; batch size is flexible.
// Each layer has two forward passes. Infer is inference: it writes into an
// output tensor and carves its scratch from an arena, both owned by its one
// caller, the compiled plan of network.Network (which runs a Conv2D and the
// 2×2/2 MaxPool after it as one step), so it keeps no state between calls
// and every replica of a network runs the same layer instances concurrently.
// Forward is training: it keeps its output and the intermediates Backward
// needs in the layer's own workspace, so only one network may train a layer
// at a time.
package layers

import (
	"repro/internal/tensor"
)

// Shape is the per-sample activation shape between layers (channels,
// height, width); batch size is carried separately by the tensors.
type Shape struct {
	C, H, W int
}

// Size returns the number of elements per sample.
func (s Shape) Size() int { return s.C * s.H * s.W }

// Param is a learnable parameter: the weight tensor, its gradient
// accumulator, and the optimizer's momentum buffer. Decay reports whether
// weight decay applies (biases and batch-norm parameters are excluded,
// matching Darknet).
type Param struct {
	Name    string
	W, G, V *tensor.Tensor
	Decay   bool
}

// newParam allocates a parameter with matching gradient/momentum buffers.
func newParam(name string, w *tensor.Tensor, decay bool) *Param {
	return &Param{
		Name:  name,
		W:     w,
		G:     tensor.New(w.N, w.C, w.H, w.W),
		V:     tensor.New(w.N, w.C, w.H, w.W),
		Decay: decay,
	}
}

// Layer is a differentiable network stage.
type Layer interface {
	// Name identifies the layer kind and configuration, e.g. "conv 3x3/1 16".
	Name() string
	// InShape and OutShape give the fixed per-sample activation shapes.
	InShape() Shape
	OutShape() Shape
	// Infer computes the inference output for a batch into out, whose shape
	// is x.N × OutShape, carving any scratch from a (valid only until the
	// call returns). It fully overwrites out, never reads what out held
	// before, and keeps no reference to x, out or a.
	Infer(x, out *tensor.Tensor, a *tensor.Arena)
	// Forward is the training forward: it returns an output the layer owns,
	// caches intermediates for Backward and (for batch norm) uses batch
	// statistics.
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Backward consumes the gradient w.r.t. the layer output and returns the
	// gradient w.r.t. the layer input, accumulating parameter gradients.
	// It must be called after a Forward.
	Backward(dout *tensor.Tensor) *tensor.Tensor
	// Params returns the learnable parameters (empty for maxpool/region).
	Params() []*Param
	// FLOPs returns the multiply-add-counted floating point operations for a
	// single-image forward pass (2 ops per MAC, Darknet convention).
	FLOPs() int64
	// IOBytes returns the per-image memory traffic estimate (input +
	// output activations + weights, 4 bytes each) used by the roofline
	// platform model.
	IOBytes() int64
	// CloneForInference returns the layer for an inference replica. Every
	// layer returns its receiver: Infer keeps no state, so replicas run one
	// instance concurrently. Training the layer while replicas run is not
	// safe, since training mutates the parameters they read.
	CloneForInference() Layer
}

// ensure allocates (or reuses) a training output tensor for the given batch
// size; tensor.Reslice keeps the backing storage when capacity suffices.
// Reused contents are unspecified: every layer Forward fully overwrites.
func ensure(t **tensor.Tensor, n int, s Shape) *tensor.Tensor {
	*t = tensor.Reslice(*t, n, s.C, s.H, s.W)
	return *t
}
