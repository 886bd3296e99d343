// Package layers implements the neural-network layers of the Darknet-style
// framework: convolution (with optional batch normalization and leaky-ReLU),
// max-pooling, and the YOLOv2-style region detection layer that both decodes
// predictions and produces the YOLO training loss.
//
// Layers are created with their input shape fixed; batch size is flexible.
// Each layer separates its shared, read-only learnable parameters from a
// per-instance workspace (forward/backward caches and scratch buffers), so a
// single instance must not be shared between concurrently-running networks —
// instead, CloneForInference produces weight-sharing replicas whose
// workspaces are independent, which is what the engine's replica pool
// (internal/engine) builds on.
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
	// Forward computes the layer output for a batch. When train is true the
	// layer caches intermediates for Backward and (for batch norm) uses
	// batch statistics.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes the gradient w.r.t. the layer output and returns the
	// gradient w.r.t. the layer input, accumulating parameter gradients.
	// It must be called after a Forward with train=true.
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
	// CloneForInference returns a replica that shares the layer's learnable
	// parameters (Param tensors and, for batch norm, the rolling statistics)
	// but owns fresh scratch/activation workspace. Replicas may run Forward
	// with train=false concurrently with each other and with the original;
	// training any instance while replicas run is not safe, since training
	// mutates the shared parameters.
	CloneForInference() Layer
}

// ScratchUser is implemented by layers whose transient per-forward scratch
// (training im2col output, per-filter inference vectors) can be rebound to a
// shared per-replica arena (tensor.Arena). The owning network binds one arena per
// replica — on Add and again on CloneForInference — so all of a replica's
// transient scratch lives in one grow-once slab that is reset at the start
// of each forward pass; layers without the method keep their private
// buffers.
type ScratchUser interface {
	SetScratchArena(*tensor.Arena)
}

// ensure allocates (or reuses) an output tensor for the given batch size;
// tensor.Reslice keeps the backing storage when capacity suffices, so
// workspaces converge to max-batch capacity under varying batch sizes.
// Reused contents are unspecified: every layer Forward fully overwrites.
func ensure(t **tensor.Tensor, n int, s Shape) *tensor.Tensor {
	*t = tensor.Reslice(*t, n, s.C, s.H, s.W)
	return *t
}
