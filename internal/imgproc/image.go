// Package imgproc provides the float32 RGB image type used throughout the
// detector pipeline, plus the geometric and radiometric operations the paper
// relies on: bilinear resizing, letterboxing to the network input size,
// drawing, HSV jitter, PNG input/output, and conversion from decoded
// standard-library images or straight from baseline JPEG bytes.
package imgproc

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Image is a planar (CHW) RGB image with float32 samples nominally in
// [0, 1]. Plane order is R, G, B, matching Darknet's internal layout.
type Image struct {
	W, H int
	Pix  []float32 // length 3*W*H
}

// NewImage allocates a black image.
func NewImage(w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imgproc: invalid image size %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]float32, 3*w*h)}
}

// At returns the sample of channel c at (x, y); out-of-bounds reads return 0.
func (m *Image) At(c, x, y int) float32 {
	if x < 0 || x >= m.W || y < 0 || y >= m.H {
		return 0
	}
	return m.Pix[(c*m.H+y)*m.W+x]
}

// Set writes the sample of channel c at (x, y); out-of-bounds writes are
// ignored so callers can draw shapes that overlap the border.
func (m *Image) Set(c, x, y int, v float32) {
	if x < 0 || x >= m.W || y < 0 || y >= m.H {
		return
	}
	m.Pix[(c*m.H+y)*m.W+x] = v
}

// SetRGB writes all three channels at (x, y).
func (m *Image) SetRGB(x, y int, r, g, b float32) {
	m.Set(0, x, y, r)
	m.Set(1, x, y, g)
	m.Set(2, x, y, b)
}

// RGB returns all three channels at (x, y).
func (m *Image) RGB(x, y int) (r, g, b float32) {
	return m.At(0, x, y), m.At(1, x, y), m.At(2, x, y)
}

// Clone returns a deep copy.
func (m *Image) Clone() *Image {
	o := NewImage(m.W, m.H)
	copy(o.Pix, m.Pix)
	return o
}

// Fill sets every pixel to the given color.
func (m *Image) Fill(r, g, b float32) {
	plane := m.W * m.H
	for i := 0; i < plane; i++ {
		m.Pix[i] = r
		m.Pix[plane+i] = g
		m.Pix[2*plane+i] = b
	}
}

// Clamp saturates all samples into [0, 1].
func (m *Image) Clamp() {
	for i, v := range m.Pix {
		if v < 0 {
			m.Pix[i] = 0
		} else if v > 1 {
			m.Pix[i] = 1
		}
	}
}

// ToTensor copies the image into a 1×3×H×W network input tensor.
func (m *Image) ToTensor() *tensor.Tensor {
	t := tensor.New(1, 3, m.H, m.W)
	copy(t.Data, m.Pix)
	return t
}

// FromTensor converts a 1×3×H×W tensor back into an image (values copied).
func FromTensor(t *tensor.Tensor) (*Image, error) {
	if t.N != 1 || t.C != 3 {
		return nil, fmt.Errorf("imgproc: tensor %v is not a 1x3xHxW image", t)
	}
	m := NewImage(t.W, t.H)
	copy(m.Pix, t.Data)
	return m, nil
}

// Resize returns the image bilinearly resampled to w×h.
func (m *Image) Resize(w, h int) *Image {
	out := NewImage(w, h)
	m.ResizeInto(out)
	return out
}

// bilinearTap is one output coordinate's two source indices and weights,
// the same along every row (columns) or every column (rows) of a resample.
type bilinearTap struct {
	i0, i1 int32
	w0, w1 float32 // 1-f and f
}

// stackTaps is how many column taps ResizeInto keeps on its stack; wider
// outputs allocate theirs.
const stackTaps = 512

// tapAt returns the bilinear tap of output coordinate o when n source
// samples are resampled by ratio (source over output size): pixel centres
// map as (o+0.5)·ratio−0.5, and the two neighbours clamp to the edge.
func tapAt(o, n int, ratio float64) bilinearTap {
	s := (float64(o)+0.5)*ratio - 0.5
	i0 := int(math.Floor(s))
	f := float32(s - float64(i0))
	return bilinearTap{i0: int32(clampInt(i0, n-1)), i1: int32(clampInt(i0+1, n-1)), w0: 1 - f, w1: f}
}

// ResizeInto bilinearly resamples the image to dst's size, overwriting all
// of dst.Pix. Column taps are computed once per call and row taps once per
// row, so each output sample costs four loads and the float32 expression
//
//	top = s00·(1−fx) + s01·fx;  bot = s10·(1−fx) + s11·fx;  top·(1−fy) + bot·fy
//
// with the same values, bit for bit, as computing every sample's source
// coordinates afresh. Up to stackTaps output columns it allocates nothing,
// so a caller can resample straight into a batch slot.
func (m *Image) ResizeInto(dst *Image) {
	w, h := dst.W, dst.H
	var buf [stackTaps]bilinearTap
	cols := buf[:min(w, stackTaps)]
	if w > stackTaps {
		cols = make([]bilinearTap, w)
	}
	xRatio := float64(m.W) / float64(w)
	for x := range cols {
		cols[x] = tapAt(x, m.W, xRatio)
	}
	yRatio := float64(m.H) / float64(h)
	plane, oplane := m.W*m.H, w*h
	for y := 0; y < h; y++ {
		ty := tapAt(y, m.H, yRatio)
		y0, y1 := int(ty.i0)*m.W, int(ty.i1)*m.W
		for c := 0; c < 3; c++ {
			r0 := m.Pix[c*plane+y0 : c*plane+y0+m.W]
			r1 := m.Pix[c*plane+y1 : c*plane+y1+m.W]
			out := dst.Pix[c*oplane+y*w : c*oplane+(y+1)*w]
			for x, tx := range cols {
				top := r0[tx.i0]*tx.w0 + r0[tx.i1]*tx.w1
				bot := r1[tx.i0]*tx.w0 + r1[tx.i1]*tx.w1
				out[x] = top*ty.w0 + bot*ty.w1
			}
		}
	}
}

func clampInt(v, hi int) int {
	if v < 0 {
		return 0
	}
	if v > hi {
		return hi
	}
	return v
}

// Letterbox fits the image into a w×h canvas preserving aspect ratio,
// padding with mid-gray as Darknet does. It returns the canvas plus the
// scale and offsets (in normalized canvas units) needed to map detection
// boxes back to the original image.
func (m *Image) Letterbox(w, h int) (out *Image, scaleX, scaleY, offX, offY float64) {
	rw := float64(w) / float64(m.W)
	rh := float64(h) / float64(m.H)
	r := math.Min(rw, rh)
	newW := int(float64(m.W) * r)
	newH := int(float64(m.H) * r)
	if newW < 1 {
		newW = 1
	}
	if newH < 1 {
		newH = 1
	}
	resized := m.Resize(newW, newH)
	out = NewImage(w, h)
	out.Fill(0.5, 0.5, 0.5)
	dx := (w - newW) / 2
	dy := (h - newH) / 2
	for c := 0; c < 3; c++ {
		for y := 0; y < newH; y++ {
			srcRow := resized.Pix[(c*newH+y)*newW:]
			dstRow := out.Pix[(c*h+y+dy)*w+dx:]
			copy(dstRow[:newW], srcRow[:newW])
		}
	}
	scaleX = float64(newW) / float64(w)
	scaleY = float64(newH) / float64(h)
	offX = float64(dx) / float64(w)
	offY = float64(dy) / float64(h)
	return out, scaleX, scaleY, offX, offY
}

// FlipHorizontal returns the image mirrored left-right.
func (m *Image) FlipHorizontal() *Image {
	out := NewImage(m.W, m.H)
	for c := 0; c < 3; c++ {
		for y := 0; y < m.H; y++ {
			for x := 0; x < m.W; x++ {
				out.Set(c, x, y, m.At(c, m.W-1-x, y))
			}
		}
	}
	return out
}

// Crop returns the sub-image [x0,x0+w)×[y0,y0+h); out-of-bounds source
// pixels are black.
func (m *Image) Crop(x0, y0, w, h int) *Image {
	out := NewImage(w, h)
	for c := 0; c < 3; c++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				out.Set(c, x, y, m.At(c, x0+x, y0+y))
			}
		}
	}
	return out
}
