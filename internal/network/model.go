package network

import (
	"repro/internal/detect"
	"repro/internal/layers"
	"repro/internal/tensor"
)

// Model is the precision-agnostic inference contract the whole serving stack
// — pipeline.BatchRunner, the engine's replica pool, and the HTTP
// micro-batcher — operates against. The float32 *Network implements it
// directly and quant.QNet implements the INT8 path, so a detector's
// deployed bit-width is a construction-time choice, not something the
// layers above can observe.
//
// Implementations follow the replica contract of CloneForInference: clones
// share read-only parameters but own their activation/scratch workspace, and
// a single instance is not safe for concurrent Forward/Detect calls.
type Model interface {
	// InShape and OutShape give the fixed per-sample input and output
	// activation shapes; batch size is carried by the tensors.
	InShape() layers.Shape
	OutShape() layers.Shape
	// ForwardBatch runs one inference-mode forward pass over an N-image
	// batch. The returned tensor is owned by the model and valid until the
	// next call.
	ForwardBatch(x *tensor.Tensor) *tensor.Tensor
	// DetectBatch runs one batched forward and returns each image's
	// thresholded, NMS-suppressed detections separately. An N-image call
	// must produce exactly the per-image results of N single-image calls —
	// the invariant the serving micro-batcher is built on.
	DetectBatch(x *tensor.Tensor, thresh, nmsThresh float64) ([][]detect.Detection, error)
	// CloneForInference returns a weight-sharing replica with fresh
	// workspace, safe to run concurrently with the receiver.
	CloneForInference() Model
	// WeightBytes reports the parameter storage footprint in bytes — the
	// quantity INT8 quantization shrinks 4× and the roofline platform model
	// keys cache residency on.
	WeightBytes() int64
}

// InShape implements Model.
func (n *Network) InShape() layers.Shape {
	return layers.Shape{C: n.InputC, H: n.InputH, W: n.InputW}
}

// ForwardBatch implements Model: an inference-mode Forward.
func (n *Network) ForwardBatch(x *tensor.Tensor) *tensor.Tensor { return n.Forward(x, false) }

// WeightBytes implements Model: four bytes per float32 learnable parameter,
// plus any resident pre-packed GEMM weight panels (built lazily for
// inference, shared across replicas) — so /healthz reports what the model
// actually holds in memory.
func (n *Network) WeightBytes() int64 {
	total := 4 * n.NumParams()
	for _, l := range n.Layers {
		if pb, ok := l.(interface{ PackedBytes() int64 }); ok {
			total += pb.PackedBytes()
		}
	}
	return total
}
