// Package tensor provides the dense float32 tensor type and the numeric
// kernels (GEMM, im2col, activations) that the network layers are built on.
// Tensors use NCHW layout: the innermost dimension is width, then height,
// then channel, then batch.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense 4-D float32 array in NCHW layout. A Tensor with
// N=C=1 doubles as a matrix (H rows × W cols) and with N=C=H=1 as a vector.
type Tensor struct {
	N, C, H, W int
	Data       []float32
}

// New allocates a zero-filled tensor of the given shape.
func New(n, c, h, w int) *Tensor {
	if n <= 0 || c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%dx%dx%d", n, c, h, w))
	}
	return &Tensor{N: n, C: c, H: h, W: w, Data: make([]float32, n*c*h*w)}
}

// NewVec allocates a 1×1×1×n tensor.
func NewVec(n int) *Tensor { return New(1, 1, 1, n) }

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly, not copied; its length must equal n*c*h*w.
func FromSlice(n, c, h, w int, data []float32) (*Tensor, error) {
	if len(data) != n*c*h*w {
		return nil, fmt.Errorf("tensor: data length %d does not match shape %dx%dx%dx%d", len(data), n, c, h, w)
	}
	return &Tensor{N: n, C: c, H: h, W: w, Data: data}, nil
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return t.N * t.C * t.H * t.W }

// Shape returns the four dimensions.
func (t *Tensor) Shape() (n, c, h, w int) { return t.N, t.C, t.H, t.W }

// At returns the element at (n, c, h, w).
func (t *Tensor) At(n, c, h, w int) float32 {
	return t.Data[((n*t.C+c)*t.H+h)*t.W+w]
}

// Set assigns the element at (n, c, h, w).
func (t *Tensor) Set(n, c, h, w int, v float32) {
	t.Data[((n*t.C+c)*t.H+h)*t.W+w] = v
}

// Index returns the flat offset of (n, c, h, w).
func (t *Tensor) Index(n, c, h, w int) int {
	return ((n*t.C+c)*t.H+h)*t.W + w
}

// Batch returns a view of sample n, sharing storage with t.
func (t *Tensor) Batch(n int) *Tensor {
	sz := t.C * t.H * t.W
	return &Tensor{N: 1, C: t.C, H: t.H, W: t.W, Data: t.Data[n*sz : (n+1)*sz]}
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	o := New(t.N, t.C, t.H, t.W)
	copy(o.Data, t.Data)
	return o
}

// Reshape returns a view with a new shape of the same total size.
func (t *Tensor) Reshape(n, c, h, w int) (*Tensor, error) {
	if n*c*h*w != t.Len() {
		return nil, fmt.Errorf("tensor: cannot reshape %d elements to %dx%dx%dx%d", t.Len(), n, c, h, w)
	}
	return &Tensor{N: n, C: c, H: h, W: w, Data: t.Data}, nil
}

// Reslice returns a tensor of the requested shape, reusing t's backing
// storage whenever its capacity suffices and allocating fresh storage only
// when it does not. It is the workspace-reuse primitive behind the layers'
// activation buffers and the serving batch runner: when the batch size
// varies call to call, buffers converge to max-batch capacity and stay
// there instead of reallocating. Reused contents are unspecified — callers
// must fully overwrite.
func Reslice(t *Tensor, n, c, h, w int) *Tensor {
	if t != nil && t.N == n && t.C == c && t.H == h && t.W == w {
		return t
	}
	if need := n * c * h * w; t != nil && cap(t.Data) >= need {
		return &Tensor{N: n, C: c, H: h, W: w, Data: t.Data[:need]}
	}
	return New(n, c, h, w)
}

// Zero sets all elements to zero.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets all elements to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Copy copies src's data into t; shapes must match in total size.
func (t *Tensor) Copy(src *Tensor) {
	if t.Len() != src.Len() {
		panic("tensor: Copy size mismatch")
	}
	copy(t.Data, src.Data)
}

// AddScaled computes t += alpha * o element-wise (axpy).
func (t *Tensor) AddScaled(alpha float32, o *Tensor) {
	if t.Len() != o.Len() {
		panic("tensor: AddScaled size mismatch")
	}
	d, s := t.Data, o.Data
	for i := range d {
		d[i] += alpha * s[i]
	}
}

// Scale multiplies every element by alpha.
func (t *Tensor) Scale(alpha float32) {
	for i := range t.Data {
		t.Data[i] *= alpha
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 { return t.Sum() / float64(t.Len()) }

// MaxAbs returns the largest absolute element value.
func (t *Tensor) MaxAbs() float32 {
	var m float32
	for _, v := range t.Data {
		a := v
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}

// L2Norm returns the Euclidean norm of all elements.
func (t *Tensor) L2Norm() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// String summarizes the tensor for debugging.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor(%dx%dx%dx%d)", t.N, t.C, t.H, t.W)
}
