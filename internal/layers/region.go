package layers

import (
	"fmt"
	"math"

	"repro/internal/detect"
	"repro/internal/tensor"
)

// Truth is a ground-truth object for training: a normalized box plus class.
type Truth struct {
	Box   detect.Box
	Class int
}

// RegionConfig carries the YOLOv2 region-layer hyper-parameters; the
// defaults mirror Darknet's tiny-yolo-voc.cfg.
type RegionConfig struct {
	Classes int
	// Anchors are the prior box sizes in grid-cell units, one (w,h) pair
	// per predicted box.
	Anchors [][2]float64
	// IgnoreThresh: predictions whose best IoU with any truth exceeds this
	// are exempt from the no-object confidence penalty.
	IgnoreThresh float64
	CoordScale   float64
	NoObjScale   float64
	ObjScale     float64
	ClassScale   float64
	// Rescore makes the confidence target the predicted IoU instead of 1.
	Rescore bool
	// BurnIn is the number of initial seen-images during which predictions
	// are additionally pulled toward their anchor priors.
	BurnIn int
}

// DefaultRegionConfig returns the Darknet tiny-YOLO region settings for the
// given class count and anchors.
func DefaultRegionConfig(classes int, anchors [][2]float64) RegionConfig {
	return RegionConfig{
		Classes:      classes,
		Anchors:      anchors,
		IgnoreThresh: 0.6,
		CoordScale:   1,
		NoObjScale:   1,
		ObjScale:     5,
		ClassScale:   1,
		Rescore:      true,
		BurnIn:       1280,
	}
}

// Region is the YOLOv2 single-shot detection head. Its input is a
// B·(5+classes) channel map over an S×S grid; per anchor the entries are
// (tx, ty, tw, th, tobj, class logits...). Infer applies the decoding
// activations; the training Forward also computes the YOLO loss and the
// input gradient directly, as Darknet's region layer does.
type Region struct {
	in  Shape
	cfg RegionConfig

	seen int // images seen, drives burn-in

	st regionState

	// Stats from the most recent training forward.
	Loss     float64
	AvgIoU   float64
	AvgObj   float64
	AvgNoObj float64
	Recall   float64
	Count    int
}

// regionState is the training workspace of a Region; Infer touches none of
// it.
type regionState struct {
	truths [][]Truth // per batch image, set before a training Forward
	out    *tensor.Tensor
	delta  *tensor.Tensor // gradient w.r.t. the (pre-activation) input
}

// NewRegion validates the configuration against the input shape.
func NewRegion(in Shape, cfg RegionConfig) (*Region, error) {
	if len(cfg.Anchors) == 0 {
		return nil, fmt.Errorf("layers: region needs at least one anchor")
	}
	if cfg.Classes < 1 {
		return nil, fmt.Errorf("layers: region needs classes >= 1, got %d", cfg.Classes)
	}
	want := len(cfg.Anchors) * (5 + cfg.Classes)
	if in.C != want {
		return nil, fmt.Errorf("layers: region input channels %d != anchors*(5+classes) = %d", in.C, want)
	}
	return &Region{in: in, cfg: cfg}, nil
}

// CloneForInference implements Layer: Infer and Decode read only the
// configuration, so the layer is its own replica.
func (r *Region) CloneForInference() Layer { return r }

// Name implements Layer.
func (r *Region) Name() string {
	return fmt.Sprintf("region %d anchors %d classes", len(r.cfg.Anchors), r.cfg.Classes)
}

// InShape implements Layer.
func (r *Region) InShape() Shape { return r.in }

// OutShape implements Layer.
func (r *Region) OutShape() Shape { return r.in }

// Params implements Layer.
func (r *Region) Params() []*Param { return nil }

// FLOPs implements Layer: activations only.
func (r *Region) FLOPs() int64 { return int64(r.in.Size()) * 4 }

// IOBytes implements Layer.
func (r *Region) IOBytes() int64 { return 8 * int64(r.in.Size()) }

// Config returns the layer configuration.
func (r *Region) Config() RegionConfig { return r.cfg }

// SetTruths installs the ground truth for the next training Forward; the
// slice is indexed by batch position.
func (r *Region) SetTruths(t [][]Truth) { r.st.truths = t }

// Seen returns the number of training images processed so far.
func (r *Region) Seen() int { return r.seen }

// SetSeen overrides the burn-in counter (used when resuming training).
func (r *Region) SetSeen(n int) { r.seen = n }

// entry returns the flat offset of entry e of anchor a at cell (row, col)
// within a single image's data.
func (r *Region) entry(a, e, row, col int) int {
	per := 5 + r.cfg.Classes
	return ((a*per+e)*r.in.H+row)*r.in.W + col
}

// Infer implements Layer: the decoding activations, with the softmax row
// carved from a.
func (r *Region) Infer(x, out *tensor.Tensor, a *tensor.Arena) {
	r.activate(x, out, a.F32(r.cfg.Classes))
}

// Forward implements Layer: the decoding activations, then the YOLO loss
// and its input gradient against the installed truths.
func (r *Region) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := ensure(&r.st.out, x.N, r.in)
	r.activate(x, out, make([]float32, r.cfg.Classes))
	r.computeLoss(x, out)
	return out
}

// activate copies x into out and applies σ(tx), σ(ty), σ(tobj) and the
// softmax over each cell's class logits, through the scratch row.
func (r *Region) activate(x, out *tensor.Tensor, scratch []float32) {
	out.Copy(x)
	nAnchors := len(r.cfg.Anchors)
	classes := r.cfg.Classes
	for b := 0; b < x.N; b++ {
		d := out.Batch(b).Data
		for a := 0; a < nAnchors; a++ {
			for row := 0; row < r.in.H; row++ {
				for col := 0; col < r.in.W; col++ {
					ix := r.entry(a, 0, row, col)
					iy := r.entry(a, 1, row, col)
					io := r.entry(a, 4, row, col)
					d[ix] = tensor.Sigmoid(d[ix])
					d[iy] = tensor.Sigmoid(d[iy])
					d[io] = tensor.Sigmoid(d[io])
					if classes > 1 {
						for c := 0; c < classes; c++ {
							scratch[c] = d[r.entry(a, 5+c, row, col)]
						}
						tensor.Softmax(scratch, scratch)
						for c := 0; c < classes; c++ {
							d[r.entry(a, 5+c, row, col)] = scratch[c]
						}
					} else {
						d[r.entry(a, 5, row, col)] = 1
					}
				}
			}
		}
	}
}

// boxAt decodes the predicted box of anchor a at (row, col) from activated
// output data d.
func (r *Region) boxAt(d []float32, a, row, col int) detect.Box {
	w := float64(r.in.W)
	h := float64(r.in.H)
	anchor := r.cfg.Anchors[a]
	return detect.Box{
		X: (float64(col) + float64(d[r.entry(a, 0, row, col)])) / w,
		Y: (float64(row) + float64(d[r.entry(a, 1, row, col)])) / h,
		W: math.Exp(float64(d[r.entry(a, 2, row, col)])) * anchor[0] / w,
		H: math.Exp(float64(d[r.entry(a, 3, row, col)])) * anchor[1] / h,
	}
}

// computeLoss fills r.st.delta with the input gradient of the YOLO loss and
// records the training statistics. The loss convention is
// L = Σ 0.5·scale·(pred−target)², so delta = scale·(pred−target)·∂pred/∂in.
func (r *Region) computeLoss(x, out *tensor.Tensor) {
	cfg := r.cfg
	nAnchors := len(cfg.Anchors)
	if r.st.delta == nil || r.st.delta.Len() != x.Len() {
		r.st.delta = tensor.New(x.N, x.C, x.H, x.W)
	}
	r.st.delta.Zero()
	r.Loss, r.AvgIoU, r.AvgObj, r.AvgNoObj, r.Recall, r.Count = 0, 0, 0, 0, 0, 0
	var noObjN int
	gw := float64(r.in.W)
	gh := float64(r.in.H)

	for b := 0; b < x.N; b++ {
		var truths []Truth
		if b < len(r.st.truths) {
			truths = r.st.truths[b]
		}
		d := out.Batch(b).Data
		del := r.st.delta.Batch(b).Data

		// No-object confidence loss for every prediction, skipped when the
		// prediction already overlaps some truth well.
		for a := 0; a < nAnchors; a++ {
			for row := 0; row < r.in.H; row++ {
				for col := 0; col < r.in.W; col++ {
					pred := r.boxAt(d, a, row, col)
					best := 0.0
					for _, t := range truths {
						if iou := detect.IoU(pred, t.Box); iou > best {
							best = iou
						}
					}
					io := r.entry(a, 4, row, col)
					conf := float64(d[io])
					r.AvgNoObj += conf
					noObjN++
					if best <= cfg.IgnoreThresh {
						r.Loss += 0.5 * cfg.NoObjScale * conf * conf
						del[io] += float32(cfg.NoObjScale * conf * float64(tensor.SigmoidGrad(float32(conf))))
					}
					// Burn-in: pull boxes toward anchor priors early on.
					if r.seen < cfg.BurnIn {
						r.burnInDelta(d, del, a, row, col)
					}
				}
			}
		}

		// Matched-truth losses.
		for _, t := range truths {
			if t.Box.W <= 0 || t.Box.H <= 0 {
				continue
			}
			col := int(t.Box.X * gw)
			row := int(t.Box.Y * gh)
			if col < 0 || col >= r.in.W || row < 0 || row >= r.in.H {
				continue
			}
			// Pick the anchor whose shape best matches the truth.
			bestA, bestShape := 0, -1.0
			truthShape := detect.Box{W: t.Box.W * gw, H: t.Box.H * gh}
			for a, anchor := range cfg.Anchors {
				s := detect.ShapeIoU(truthShape, detect.Box{W: anchor[0], H: anchor[1]})
				if s > bestShape {
					bestShape = s
					bestA = a
				}
			}
			a := bestA
			pred := r.boxAt(d, a, row, col)
			iou := detect.IoU(pred, t.Box)
			r.AvgIoU += iou
			if iou > 0.5 {
				r.Recall++
			}
			r.Count++

			// Coordinate loss, weighted up for small boxes.
			scale := cfg.CoordScale * (2 - t.Box.W*t.Box.H)
			tx := t.Box.X*gw - float64(col)
			ty := t.Box.Y*gh - float64(row)
			tw := math.Log(t.Box.W * gw / cfg.Anchors[a][0])
			th := math.Log(t.Box.H * gh / cfg.Anchors[a][1])
			r.coordDelta(d, del, a, row, col, tx, ty, tw, th, scale)

			// Object confidence loss (rescore: target is the current IoU).
			io := r.entry(a, 4, row, col)
			conf := float64(d[io])
			r.AvgObj += conf
			target := 1.0
			if cfg.Rescore {
				target = iou
			}
			// Remove any no-object contribution applied above to this entry.
			if best := bestIoUOf(pred, truths); best <= cfg.IgnoreThresh {
				r.Loss -= 0.5 * cfg.NoObjScale * conf * conf
				del[io] -= float32(cfg.NoObjScale * conf * float64(tensor.SigmoidGrad(float32(conf))))
			}
			r.Loss += 0.5 * cfg.ObjScale * (conf - target) * (conf - target)
			del[io] += float32(cfg.ObjScale * (conf - target) * float64(tensor.SigmoidGrad(float32(conf))))

			// Class loss: squared error on softmax outputs (Darknet uses the
			// same for region layers without a softmax tree).
			if cfg.Classes > 1 {
				for c := 0; c < cfg.Classes; c++ {
					ic := r.entry(a, 5+c, row, col)
					p := float64(d[ic])
					tgt := 0.0
					if c == t.Class {
						tgt = 1
					}
					r.Loss += 0.5 * cfg.ClassScale * (p - tgt) * (p - tgt)
					// Diagonal softmax-jacobian approximation, as Darknet.
					del[ic] += float32(cfg.ClassScale * (p - tgt) * p * (1 - p))
				}
			}
		}
		r.seen++
	}
	if noObjN > 0 {
		r.AvgNoObj /= float64(noObjN)
	}
	if r.Count > 0 {
		r.AvgIoU /= float64(r.Count)
		r.AvgObj /= float64(r.Count)
		r.Recall /= float64(r.Count)
	}
}

func bestIoUOf(pred detect.Box, truths []Truth) float64 {
	best := 0.0
	for _, t := range truths {
		if iou := detect.IoU(pred, t.Box); iou > best {
			best = iou
		}
	}
	return best
}

// burnInDelta nudges a prediction toward its anchor prior (σtx=σty=0.5,
// tw=th=0) with a small weight, stabilizing early training.
func (r *Region) burnInDelta(d, del []float32, a, row, col int) {
	const w = 0.01
	r.coordDeltaWeighted(d, del, a, row, col, 0.5, 0.5, 0, 0, w, false)
}

func (r *Region) coordDelta(d, del []float32, a, row, col int, tx, ty, tw, th, scale float64) {
	r.coordDeltaWeighted(d, del, a, row, col, tx, ty, tw, th, scale, true)
}

// coordDeltaWeighted accumulates the coordinate gradient. tx/ty targets are
// in sigmoid space; tw/th targets are raw. When countLoss is false the term
// contributes gradient but not the reported loss (burn-in convention).
func (r *Region) coordDeltaWeighted(d, del []float32, a, row, col int, tx, ty, tw, th, scale float64, countLoss bool) {
	ix := r.entry(a, 0, row, col)
	iy := r.entry(a, 1, row, col)
	iw := r.entry(a, 2, row, col)
	ih := r.entry(a, 3, row, col)
	sx := float64(d[ix])
	sy := float64(d[iy])
	// tw/th are linear, so the activated output equals the raw input.
	rw := float64(d[iw])
	rh := float64(d[ih])
	if countLoss {
		r.Loss += 0.5 * scale * ((sx-tx)*(sx-tx) + (sy-ty)*(sy-ty) + (rw-tw)*(rw-tw) + (rh-th)*(rh-th))
	}
	del[ix] += float32(scale * (sx - tx) * float64(tensor.SigmoidGrad(float32(sx))))
	del[iy] += float32(scale * (sy - ty) * float64(tensor.SigmoidGrad(float32(sy))))
	del[iw] += float32(scale * (rw - tw))
	del[ih] += float32(scale * (rh - th))
}

// Backward implements Layer: the gradient was already computed in Forward
// (the region layer terminates the network, so dout is ignored, matching
// Darknet's cost-layer convention).
func (r *Region) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if r.st.delta == nil {
		panic("layers: Region.Backward before a training Forward")
	}
	return r.st.delta
}

// Decode converts the activated output for batch image b into detections
// with confidence ≥ thresh. Boxes are normalized and clipped to the image.
func (r *Region) Decode(out *tensor.Tensor, b int, thresh float64) []detect.Detection {
	d := out.Batch(b).Data
	var dets []detect.Detection
	for a := 0; a < len(r.cfg.Anchors); a++ {
		for row := 0; row < r.in.H; row++ {
			for col := 0; col < r.in.W; col++ {
				conf := float64(d[r.entry(a, 4, row, col)])
				if conf < thresh {
					continue
				}
				bestC, bestP := 0, 0.0
				for c := 0; c < r.cfg.Classes; c++ {
					if p := float64(d[r.entry(a, 5+c, row, col)]); p > bestP {
						bestP = p
						bestC = c
					}
				}
				score := conf * bestP
				if score < thresh {
					continue
				}
				dets = append(dets, detect.Detection{
					Box:   r.boxAt(d, a, row, col).Clip(),
					Class: bestC,
					Score: score,
				})
			}
		}
	}
	return dets
}
