// Package network assembles layers into a trainable feed-forward detector
// and provides the SGD optimizer, workload accounting (FLOPs, parameters,
// activation memory) and the layer summary tables used to reproduce the
// paper's Fig. 1 and Fig. 2.
package network

import (
	"fmt"
	"strings"

	"repro/internal/detect"
	"repro/internal/layers"
	"repro/internal/tensor"
)

// Network is an ordered stack of layers ending, for the paper's detectors,
// in a region layer.
type Network struct {
	// Name labels the model (e.g. "DroNet").
	Name string
	// InputW, InputH, InputC describe the expected input image tensor.
	InputW, InputH, InputC int
	Layers                 []layers.Layer

	lastOut *tensor.Tensor
	// arena is this instance's scratch arena: every layer implementing
	// layers.ScratchUser carves its transient per-forward buffers from it,
	// and Forward resets it at the start of each pass. Replicas get their
	// own (CloneForInference), so the whole transient footprint of one
	// replica is a single grow-once slab — the zero-alloc steady state the
	// serving path relies on, with ScratchBytes reporting the footprint.
	arena *tensor.Arena
	// per is the reusable result holder of DetectBatch (see its contract).
	per [][]detect.Detection
}

// New creates an empty network for the given input geometry.
func New(name string, w, h, c int) *Network {
	return &Network{Name: name, InputW: w, InputH: h, InputC: c, arena: &tensor.Arena{}}
}

// Add appends a layer; its input shape must chain from the previous layer.
// Layers implementing layers.ScratchUser are bound to the network's scratch
// arena.
func (n *Network) Add(l layers.Layer) error {
	want := n.nextShape()
	got := l.InShape()
	if got != want {
		return fmt.Errorf("network: layer %q input %+v does not chain from %+v", l.Name(), got, want)
	}
	if n.arena == nil { // zero-literal constructed network
		n.arena = &tensor.Arena{}
	}
	if su, ok := l.(layers.ScratchUser); ok {
		su.SetScratchArena(n.arena)
	}
	n.Layers = append(n.Layers, l)
	return nil
}

// ScratchBytes reports the footprint of this instance's scratch arena — the
// per-replica transient workspace the engine aggregates for observability.
func (n *Network) ScratchBytes() int64 {
	if n.arena == nil {
		return 0
	}
	return n.arena.Bytes()
}

func (n *Network) nextShape() layers.Shape {
	if len(n.Layers) == 0 {
		return layers.Shape{C: n.InputC, H: n.InputH, W: n.InputW}
	}
	return n.Layers[len(n.Layers)-1].OutShape()
}

// OutShape returns the per-sample output shape of the final layer.
func (n *Network) OutShape() layers.Shape { return n.nextShape() }

// CloneForInference returns a replica network whose layers share the
// receiver's learnable parameters (weights, biases, batch-norm scales and
// rolling statistics) but own fresh activation/scratch workspace. Replicas
// may run Forward/Detect concurrently with each other and with the original;
// they see weight updates made through any copy, so none of them may train
// while others are running. This is the seam the engine's replica pool uses
// to serve many concurrent requests from one set of weights. The result is typed as
// the precision-agnostic Model (its dynamic type is always *Network).
func (n *Network) CloneForInference() Model {
	c := &Network{Name: n.Name, InputW: n.InputW, InputH: n.InputH, InputC: n.InputC, arena: &tensor.Arena{}}
	c.Layers = make([]layers.Layer, len(n.Layers))
	for i, l := range n.Layers {
		c.Layers[i] = l.CloneForInference()
		if su, ok := c.Layers[i].(layers.ScratchUser); ok {
			su.SetScratchArena(c.arena)
		}
	}
	return c
}

// Region returns the terminal region layer, or nil if the network does not
// end in one.
func (n *Network) Region() *layers.Region {
	if len(n.Layers) == 0 {
		return nil
	}
	r, _ := n.Layers[len(n.Layers)-1].(*layers.Region)
	return r
}

// Forward runs the network on a batch. The returned tensor is owned by the
// final layer and is valid until the next Forward.
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if n.arena != nil {
		n.arena.Reset() // transient scratch from the previous pass is dead
	}
	cur := x
	for _, l := range n.Layers {
		cur = l.Forward(cur, train)
	}
	n.lastOut = cur
	return cur
}

// Backward back-propagates from the terminal (loss-computing) layer through
// the stack. It must follow a Forward with train=true.
func (n *Network) Backward() {
	var grad *tensor.Tensor
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
}

// TrainStep runs one forward/backward pass over a batch with the given
// ground truth and returns the batch loss. Parameter gradients accumulate
// until Update is called.
func (n *Network) TrainStep(x *tensor.Tensor, truths [][]layers.Truth) (float64, error) {
	r := n.Region()
	if r == nil {
		return 0, fmt.Errorf("network: TrainStep requires a region layer")
	}
	r.SetTruths(truths)
	n.Forward(x, true)
	n.Backward()
	return r.Loss, nil
}

// Params returns all learnable parameters in layer order.
func (n *Network) Params() []*layers.Param {
	var ps []*layers.Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// SGD holds the optimizer hyper-parameters, mirroring Darknet's defaults.
type SGD struct {
	LR       float64
	Momentum float64
	Decay    float64
}

// Update applies one SGD-with-momentum step, scaled for the batch size, and
// zeroes the accumulated gradients.
func (n *Network) Update(opt SGD, batch int) {
	if batch < 1 {
		batch = 1
	}
	lr := float32(opt.LR / float64(batch))
	mom := float32(opt.Momentum)
	for _, p := range n.Params() {
		w, g, v := p.W.Data, p.G.Data, p.V.Data
		if p.Decay && opt.Decay != 0 {
			dec := float32(opt.Decay * float64(batch))
			for i := range g {
				g[i] += dec * w[i]
			}
		}
		for i := range w {
			v[i] = mom*v[i] - lr*g[i]
			w[i] += v[i]
			g[i] = 0
		}
	}
	// Weights changed: any pre-packed GEMM operands are stale. The next
	// inference pass repacks lazily.
	for _, l := range n.Layers {
		if inv, ok := l.(interface{ InvalidateWeightPack() }); ok {
			inv.InvalidateWeightPack()
		}
	}
}

// ZeroGrads clears all parameter gradients.
func (n *Network) ZeroGrads() {
	for _, p := range n.Params() {
		p.G.Zero()
	}
}

// NumParams returns the total learnable parameter count.
func (n *Network) NumParams() int64 {
	var total int64
	for _, p := range n.Params() {
		total += int64(p.W.Len())
	}
	return total
}

// FLOPs returns the per-image forward cost in floating point operations.
func (n *Network) FLOPs() int64 {
	var total int64
	for _, l := range n.Layers {
		total += l.FLOPs()
	}
	return total
}

// IOBytes returns the per-image memory-traffic estimate for the roofline
// platform model.
func (n *Network) IOBytes() int64 {
	var total int64
	for _, l := range n.Layers {
		total += l.IOBytes()
	}
	return total
}

// Detect runs inference on a tensor and returns thresholded, NMS-filtered
// detections, concatenated over the batch (suppression is per image; for
// per-image results use DetectBatch).
func (n *Network) Detect(x *tensor.Tensor, thresh, nmsThresh float64) ([]detect.Detection, error) {
	per, err := n.DetectBatch(x, thresh, nmsThresh)
	if err != nil {
		return nil, err
	}
	if len(per) == 1 {
		return per[0], nil
	}
	var all []detect.Detection
	for _, dets := range per {
		all = append(all, dets...)
	}
	return all, nil
}

// DetectBatch runs one batched forward pass and returns the detections of
// each batch image separately, each independently thresholded and
// NMS-suppressed. A single N-image DetectBatch produces exactly the same
// per-image detections as N serial single-image Detect calls — the
// invariant the serving micro-batcher is built on (every layer loops over
// the batch dimension with per-image convolution/decode, and inference-mode
// batch norm uses rolling statistics, so images never influence each
// other).
//
// Ownership: the OUTER slice is workspace owned by the model and is valid
// only until the next DetectBatch call (this keeps the steady-state serving
// path allocation-free); the inner per-image slices are freshly built and
// may be retained by the caller.
func (n *Network) DetectBatch(x *tensor.Tensor, thresh, nmsThresh float64) ([][]detect.Detection, error) {
	r := n.Region()
	if r == nil {
		return nil, fmt.Errorf("network: DetectBatch requires a region layer")
	}
	out := n.Forward(x, false)
	if cap(n.per) < x.N {
		n.per = make([][]detect.Detection, x.N)
	}
	per := n.per[:x.N]
	for b := 0; b < x.N; b++ {
		per[b] = detect.NMS(r.Decode(out, b, thresh), nmsThresh)
	}
	return per, nil
}

// Summary renders the Fig. 1/Fig. 2-style layer table: index, type, filter
// configuration, input and output sizes, and per-layer GFLOPs.
func (n *Network) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (input %dx%dx%d)\n", n.Name, n.InputW, n.InputH, n.InputC)
	fmt.Fprintf(&b, "%-4s %-24s %-16s %-16s %10s\n", "#", "layer", "input", "output", "MFLOPs")
	in := layers.Shape{C: n.InputC, H: n.InputH, W: n.InputW}
	for i, l := range n.Layers {
		out := l.OutShape()
		fmt.Fprintf(&b, "%-4d %-24s %-16s %-16s %10.2f\n",
			i, l.Name(),
			fmt.Sprintf("%dx%dx%d", in.W, in.H, in.C),
			fmt.Sprintf("%dx%dx%d", out.W, out.H, out.C),
			float64(l.FLOPs())/1e6)
		in = out
	}
	fmt.Fprintf(&b, "total: %.1f MFLOPs, %d params\n", float64(n.FLOPs())/1e6, n.NumParams())
	return b.String()
}
