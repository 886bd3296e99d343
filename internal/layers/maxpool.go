package layers

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// MaxPool is a Darknet-style max-pooling layer. Darknet pads max-pool
// windows with `size-1` total padding by default (split as floor(pad/2) on
// the leading edge, sampling -inf outside the image), which makes the common
// 2x2/2 pool behave like a ceil-mode pool and lets the 2x2/1 pool in
// Tiny-YOLO preserve spatial size.
type MaxPool struct {
	in, out Shape
	Size    int
	Stride  int
	Pad     int // total padding, darknet default size-1

	st poolState
}

// poolState is the training workspace of a MaxPool; Infer touches none of
// it.
type poolState struct {
	x   *tensor.Tensor
	out *tensor.Tensor
	idx []int32 // argmax flat input index per output element, -1 for all-pad windows
	dx  *tensor.Tensor
}

// NewMaxPool creates a max-pool layer. pad < 0 selects the Darknet default
// of size-1.
func NewMaxPool(in Shape, size, stride, pad int) (*MaxPool, error) {
	if size <= 0 || stride <= 0 {
		return nil, fmt.Errorf("layers: invalid maxpool size=%d stride=%d", size, stride)
	}
	if pad < 0 {
		pad = size - 1
	}
	outH := (in.H+pad-size)/stride + 1
	outW := (in.W+pad-size)/stride + 1
	if outH <= 0 || outW <= 0 {
		return nil, fmt.Errorf("layers: maxpool %d/%d collapses %dx%d input", size, stride, in.H, in.W)
	}
	return &MaxPool{
		in:     in,
		out:    Shape{C: in.C, H: outH, W: outW},
		Size:   size,
		Stride: stride,
		Pad:    pad,
	}, nil
}

// CloneForInference implements Layer: Infer reads only the geometry, so the
// layer is its own replica.
func (p *MaxPool) CloneForInference() Layer { return p }

// Name implements Layer.
func (p *MaxPool) Name() string { return fmt.Sprintf("maxpool %dx%d/%d", p.Size, p.Size, p.Stride) }

// InShape implements Layer.
func (p *MaxPool) InShape() Shape { return p.in }

// OutShape implements Layer.
func (p *MaxPool) OutShape() Shape { return p.out }

// Params implements Layer.
func (p *MaxPool) Params() []*Param { return nil }

// FLOPs implements Layer: one compare per window element.
func (p *MaxPool) FLOPs() int64 {
	return int64(p.out.Size()) * int64(p.Size*p.Size)
}

// IOBytes implements Layer.
func (p *MaxPool) IOBytes() int64 {
	return 4 * (int64(p.in.Size()) + int64(p.out.Size()))
}

// Infer implements Layer. 2×2 windows anchored inside the image (Pad ≤ 1:
// every pool in the paper's models, ceil-mode edges included) take the
// streaming fast path; every other geometry runs the generic window loop.
// A pool needs no scratch.
func (p *MaxPool) Infer(x, out *tensor.Tensor, _ *tensor.Arena) {
	if p.Size == 2 && p.Pad <= 1 {
		p.forward2x2(x, out)
	} else {
		p.forwardWindows(x, out, false)
	}
}

// Forward implements Layer: the generic window loop, recording each
// window's argmax for Backward.
func (p *MaxPool) Forward(x *tensor.Tensor) *tensor.Tensor {
	p.st.x = x
	out := ensure(&p.st.out, x.N, p.out)
	p.forwardWindows(x, out, true)
	return out
}

var negInf = float32(math.Inf(-1))

// forward2x2 pools plane by plane through tensor.MaxPoolPlane2x2: no
// per-element window clamp (a clipped window re-reads its last row or
// column) and no argmax bookkeeping.
func (p *MaxPool) forward2x2(x, out *tensor.Tensor) {
	inSize, outSize := p.in.H*p.in.W, p.out.H*p.out.W
	for b := 0; b < x.N; b++ {
		src := x.Batch(b).Data
		dst := out.Batch(b).Data
		for ch := 0; ch < p.in.C; ch++ {
			tensor.MaxPoolPlane2x2(src[ch*inSize:(ch+1)*inSize], p.in.H, p.in.W,
				dst[ch*outSize:(ch+1)*outSize], p.out.W, p.Stride)
		}
	}
}

// forwardWindows is the generic window loop. The window bounds are clamped
// per output row/column BEFORE the window loops, so the interior runs
// without any per-element padding branch. When train is set it also records
// each window's argmax for Backward.
func (p *MaxPool) forwardWindows(x, out *tensor.Tensor, train bool) {
	if train {
		need := out.Len()
		if len(p.st.idx) != need {
			p.st.idx = make([]int32, need)
		}
	}
	off := p.Pad / 2
	inH, inW := p.in.H, p.in.W
	for b := 0; b < x.N; b++ {
		src := x.Batch(b).Data
		dst := out.Batch(b).Data
		for ch := 0; ch < p.in.C; ch++ {
			plane := src[ch*inH*inW : (ch+1)*inH*inW]
			for oh := 0; oh < p.out.H; oh++ {
				h0 := oh*p.Stride - off
				kh0, kh1 := 0, p.Size
				if h0 < 0 {
					kh0 = -h0
				}
				if h0+kh1 > inH {
					kh1 = inH - h0
				}
				for ow := 0; ow < p.out.W; ow++ {
					w0 := ow*p.Stride - off
					kw0, kw1 := 0, p.Size
					if w0 < 0 {
						kw0 = -w0
					}
					if w0+kw1 > inW {
						kw1 = inW - w0
					}
					best := negInf
					bestIdx := int32(-1)
					for kh := kh0; kh < kh1; kh++ {
						row := (h0 + kh) * inW
						for kw := kw0; kw < kw1; kw++ {
							iw := row + w0 + kw
							if v := plane[iw]; v > best {
								best = v
								if train {
									bestIdx = int32(ch*inH*inW + iw)
								}
							}
						}
					}
					if best == negInf {
						best = 0 // nothing above -Inf: an all-pad window (extreme padding only)
					}
					oi := ch*p.out.H*p.out.W + oh*p.out.W + ow
					dst[oi] = best
					if train {
						p.st.idx[b*p.out.Size()+oi] = bestIdx
					}
				}
			}
		}
	}
}

// Backward implements Layer: routes each output gradient to its argmax.
func (p *MaxPool) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dx := ensureDX(&p.st.dx, p.st.x)
	dx.Zero()
	outSize := p.out.Size()
	for b := 0; b < dout.N; b++ {
		d := dout.Batch(b).Data
		g := dx.Batch(b).Data
		for i, v := range d {
			if src := p.st.idx[b*outSize+i]; src >= 0 {
				g[src] += v
			}
		}
	}
	return dx
}
