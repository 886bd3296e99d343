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

// poolState is the per-instance workspace of a MaxPool; CloneForInference
// resets it so replicas never share buffers.
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

// CloneForInference implements Layer: max-pooling has no parameters, so the
// clone is an independent instance with the same geometry and fresh buffers.
func (p *MaxPool) CloneForInference() Layer {
	cp := *p
	cp.st = poolState{}
	return &cp
}

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

// Forward implements Layer. Inference over 2×2 windows anchored inside the
// image (Pad ≤ 1: every pool in the paper's models, ceil-mode edges
// included) takes the streaming fast path; training — which needs the
// argmax — and every other geometry run the generic window loop.
func (p *MaxPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	p.st.x = x
	out := ensure(&p.st.out, x.N, p.out)
	if !train && p.Size == 2 && p.Pad <= 1 {
		p.forward2x2(x, out)
	} else {
		p.forwardWindows(x, out, train)
	}
	return out
}

var negInf = float32(math.Inf(-1))

// forward2x2 streams two input rows per output row: no per-element window
// clamp (a window clipped by the bottom or right edge re-reads its own row
// or column, which cannot change a maximum) and no argmax bookkeeping.
//
// A stride-2 row on a kernel family with a vector pool
// (tensor.MaxPool2x2Kernel: avx2) takes eight outputs per step. VMAXPS
// answers its second operand on a NaN or a tie of zeros, so a block goes
// back to max2x2 when any of its 32 inputs is NaN or any of its maxima is
// ±0 or −Inf — exactly the windows where VMAXPS and max2x2 can differ.
// Stride-1 pools, a row's last fewer-than-eight outputs and the clipped
// last column stay scalar, as does every row on the portable family.
func (p *MaxPool) forward2x2(x, out *tensor.Tensor) {
	inH, inW, outH, outW, stride := p.in.H, p.in.W, p.out.H, p.out.W, p.Stride
	// Only the last output column's window can be clipped (Pad ≤ 1), and then
	// to the last input column alone.
	full := outW
	if (outW-1)*stride+1 >= inW {
		full--
	}
	var vec func(r0, r1, d []float32) int
	if stride == 2 {
		vec = tensor.MaxPool2x2Kernel()
	}
	for b := 0; b < x.N; b++ {
		src := x.Batch(b).Data
		dst := out.Batch(b).Data
		for ch := 0; ch < p.in.C; ch++ {
			plane := src[ch*inH*inW : (ch+1)*inH*inW]
			for oh := 0; oh < outH; oh++ {
				h0 := oh * stride
				h1 := min(h0+1, inH-1)
				r0 := plane[h0*inW : (h0+1)*inW]
				r1 := plane[h1*inW : (h1+1)*inW]
				d := dst[(ch*outH+oh)*outW : (ch*outH+oh+1)*outW]
				for ow := 0; ow < full; {
					end := full
					if vec != nil {
						// The vector kernel stops before the tail and before a
						// block it cannot decide; that block (or the tail)
						// takes max2x2, then the kernel resumes.
						if full-ow >= 8 {
							ow += vec(r0[2*ow:], r1[2*ow:], d[ow:full])
						}
						end = min(ow+8, full)
					}
					for ; ow < end; ow++ {
						i := ow * stride
						d[ow] = max2x2(r0[i], r0[i+1], r1[i], r1[i+1])
					}
				}
				if full < outW {
					d[full] = max2x2(r0[inW-1], r0[inW-1], r1[inW-1], r1[inW-1])
				}
			}
		}
	}
}

// max2x2 is the generic loop's window maximum for one row-major 2×2 window:
// the first element, in scan order, that no other exceeds, with NaNs never
// selected and 0 for a window holding nothing above -Inf. The comparisons
// mispredict on every other window, so the common case goes through Go's
// branch-free min (one negated min tree: max compiles to a negated min per
// call). min propagates NaN and orders -0 below +0, so its answer is taken
// only when it is a non-zero number above -Inf — then every maximal element
// has the same bits and scan order cannot matter; the rare rest (a NaN, a ±0
// or a -Inf result) is rescanned exactly.
func max2x2(a, b, c, d float32) float32 {
	if r := -min(min(-a, -b), min(-c, -d)); r > negInf && r != 0 {
		return r
	}
	best := negInf
	for _, v := range [4]float32{a, b, c, d} {
		if v > best {
			best = v
		}
	}
	if best == negInf {
		return 0
	}
	return best
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
