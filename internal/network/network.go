// Package network assembles layers into a trainable feed-forward detector
// and provides the SGD optimizer, workload accounting (FLOPs, parameters,
// activation memory) and the layer summary tables used to reproduce the
// paper's Fig. 1 and Fig. 2.
package network

import (
	"fmt"
	"strings"
	"sync/atomic"

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

	// Inference memory, owned per instance (replicas get their own). The
	// plan compiles the layers into steps: one per layer, except that a
	// Conv2D and the 2×2/2 MaxPool after it that it FusesPool are one step
	// (Conv2D.InferPool2x2). A batch runs in groups of images whose slabs
	// fit groupBytes; within a group step i writes slab[i%2] through the
	// output header steps[i].out, the last step writes the group's images
	// of final, and each step carves its scratch from arena, reset before it
	// runs. perImage[p] is the largest output of the steps writing slab p;
	// slabs and final grow only when a larger group or batch arrives.
	slab      [2][]float32
	final     []float32
	perImage  [2]int
	steps     []step
	planned   int           // len(Layers) when steps was compiled
	in        tensor.Tensor // the current group's view of the batch input
	arena     tensor.Arena
	slabBytes atomic.Int64 // 4·(len(slab[0])+len(slab[1])+len(final)), for ScratchBytes
	// per is the reusable result holder of DetectBatch (see its contract).
	per [][]detect.Detection
}

// New creates an empty network for the given input geometry.
func New(name string, w, h, c int) *Network {
	return &Network{Name: name, InputW: w, InputH: h, InputC: c}
}

// Add appends a layer; its input shape must chain from the previous layer.
func (n *Network) Add(l layers.Layer) error {
	want := n.nextShape()
	got := l.InShape()
	if got != want {
		return fmt.Errorf("network: layer %q input %+v does not chain from %+v", l.Name(), got, want)
	}
	n.Layers = append(n.Layers, l)
	return nil
}

// ScratchBytes reports this instance's inference memory — both activation
// slabs and the scratch arena, the whole transient footprint of a replica
// that the engine aggregates for observability. It is safe to call while a
// forward pass runs.
func (n *Network) ScratchBytes() int64 {
	return n.slabBytes.Load() + n.arena.Bytes()
}

func (n *Network) nextShape() layers.Shape {
	if len(n.Layers) == 0 {
		return n.InShape()
	}
	return n.Layers[len(n.Layers)-1].OutShape()
}

// InShape returns the per-sample input shape.
func (n *Network) InShape() layers.Shape {
	return layers.Shape{C: n.InputC, H: n.InputH, W: n.InputW}
}

// OutShape returns the per-sample output shape of the final layer.
func (n *Network) OutShape() layers.Shape { return n.nextShape() }

// CloneForInference returns a replica: a network with the receiver's name,
// input geometry and Layers slice over inference memory of its own.
// Replicas may run Forward/Detect concurrently with each other and with the
// original; none of them may train while others are running, since
// training mutates the layers they all run. This is the seam the engine's
// replica pool uses to serve many concurrent requests from one set of
// weights.
func (n *Network) CloneForInference() *Network {
	return &Network{Name: n.Name, InputW: n.InputW, InputH: n.InputH, InputC: n.InputC, Layers: n.Layers}
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

// step is one compiled inference step: run writes out from the previous
// step's output, running Layers[lo:hi].
type step struct {
	run    func(x, out *tensor.Tensor, a *tensor.Arena)
	out    tensor.Tensor
	lo, hi int
}

// groupBytes bounds the two slabs of one image group: a batch runs step by
// step over as many images at a time as fit (at least one), so that a step
// reads what the step before it wrote while it is still in cache. It is
// half of one core's 2 MB L2 on the reference Xeon.
const groupBytes = 1 << 20

// Forward runs the network on a batch: the layers' training Forward when
// train is set, else ForwardSteps(x, nil). The returned tensor is owned by
// the network (inference) or the final layer (training) and is valid until
// the next Forward.
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train {
		return n.ForwardSteps(x, nil)
	}
	for _, l := range n.Layers {
		x = l.Forward(x)
	}
	return x
}

// ForwardSteps runs inference through the compiled plan. A non-nil after is
// called after each step of each image group with the step's range [lo, hi)
// of Layers and its output, the group's images, valid only during the call.
// The result is owned by the network and valid until the next Forward.
func (n *Network) ForwardSteps(x *tensor.Tensor, after func(lo, hi int, out *tensor.Tensor)) *tensor.Tensor {
	if len(n.Layers) == 0 {
		return x
	}
	if n.planned != len(n.Layers) {
		n.plan()
	}
	group := x.N
	if per := 4 * (n.perImage[0] + n.perImage[1]); per > 0 {
		group = min(x.N, max(1, groupBytes/per))
	}
	last := &n.steps[len(n.steps)-1]
	size := last.out.C * last.out.H * last.out.W
	grew := false
	for p, per := range n.perImage {
		if need := group * per; need > len(n.slab[p]) {
			n.slab[p], grew = make([]float32, need), true
		}
	}
	if need := x.N * size; need > len(n.final) {
		n.final, grew = make([]float32, need), true
	}
	if grew {
		n.slabBytes.Store(4 * int64(len(n.slab[0])+len(n.slab[1])+len(n.final)))
	}
	inSize := x.C * x.H * x.W
	n.in = tensor.Tensor{C: x.C, H: x.H, W: x.W}
	for b0 := 0; b0 < x.N; b0 += group {
		nb := min(group, x.N-b0)
		n.in.N, n.in.Data = nb, x.Data[b0*inSize:(b0+nb)*inSize]
		cur := &n.in
		for i := range n.steps {
			s := &n.steps[i]
			s.out.N = nb
			if s == last {
				s.out.Data = n.final[b0*size : (b0+nb)*size]
			} else {
				s.out.Data = n.slab[i%2][:nb*s.out.C*s.out.H*s.out.W]
			}
			n.arena.Reset()
			s.run(cur, &s.out, &n.arena)
			if after != nil {
				after(s.lo, s.hi, &s.out)
			}
			cur = &s.out
		}
	}
	last.out.N, last.out.Data = x.N, n.final[:x.N*size]
	return &last.out
}

// plan compiles the inference steps from the layers' static geometry: each
// step's run and output header, fusing every Conv2D with the MaxPool after
// it that it FusesPool, and the per-image size of each slab — the largest
// output of the steps writing it, the last step (which writes final)
// excluded.
func (n *Network) plan() {
	n.steps = n.steps[:0]
	for i := 0; i < len(n.Layers); i++ {
		l, lo := n.Layers[i], i
		run, s := l.Infer, l.OutShape()
		if c, ok := l.(*layers.Conv2D); ok && i+1 < len(n.Layers) {
			if p, ok := n.Layers[i+1].(*layers.MaxPool); ok && c.FusesPool(p) {
				run, s = c.InferPool2x2, p.OutShape()
				i++
			}
		}
		n.steps = append(n.steps, step{run: run, out: tensor.Tensor{C: s.C, H: s.H, W: s.W}, lo: lo, hi: i + 1})
	}
	n.perImage = [2]int{}
	for i, s := range n.steps[:len(n.steps)-1] {
		n.perImage[i%2] = max(n.perImage[i%2], s.out.C*s.out.H*s.out.W)
	}
	n.planned = len(n.Layers)
}

// ForwardBatch runs an inference-mode Forward.
func (n *Network) ForwardBatch(x *tensor.Tensor) *tensor.Tensor { return n.Forward(x, false) }

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

// WeightBytes reports what the model holds in memory for its weights: the
// sum of the WeightBytes of every layer that has weights (resident
// pre-packed GEMM panels included; replicas share them, so they count once).
func (n *Network) WeightBytes() int64 {
	var total int64
	for _, l := range n.Layers {
		if wb, ok := l.(interface{ WeightBytes() int64 }); ok {
			total += wb.WeightBytes()
		}
	}
	return total
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
