package quant

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/layers"
	"repro/internal/tensor"
)

// im2colInt8 unrolls a single-image CHW int8 input into the column matrix
// that lowers convolution onto GEMM, with the patch layout of tensor.Im2col:
// (channels·ksize²) rows by (outH·outW) columns, row-major, zero for pixels
// outside the padded image. It is the int8 im2col QConv used to run on.
func im2colInt8(img []int8, channels, height, width, ksize, stride, pad int, col []int8) {
	outH := (height+2*pad-ksize)/stride + 1
	outW := (width+2*pad-ksize)/stride + 1
	colsPerRow := outH * outW
	for r := 0; r < channels*ksize*ksize; r++ {
		wOff, hOff, ch := r%ksize, (r/ksize)%ksize, r/(ksize*ksize)
		src, dst := img[ch*height*width:], col[r*colsPerRow:]
		for oh := 0; oh < outH; oh++ {
			ih := oh*stride - pad + hOff
			for ow := 0; ow < outW; ow++ {
				iw := ow*stride - pad + wOff
				if ih < 0 || ih >= height || iw < 0 || iw >= width {
					dst[oh*outW+ow] = 0
				} else {
					dst[oh*outW+ow] = src[ih*width+iw]
				}
			}
		}
	}
}

// qconvReference is QConv.Infer as a staged lowering, per image: quantize
// the input, im2col it, one GemmInt8 with the requantizing store, then a
// separate leaky-ReLU pass over the whole output.
func qconvReference(qc *QConv, x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.N, qc.out.C, qc.out.H, qc.out.W)
	fanIn := qc.in.C * qc.Ksize * qc.Ksize
	spatial := qc.out.H * qc.out.W
	qx := make([]int8, qc.in.Size())
	qcol := make([]int8, fanIn*spatial)
	for b := 0; b < x.N; b++ {
		tensor.QuantizeSymmetric(x.Batch(b).Data, qc.ActScale, qx)
		im2colInt8(qx, qc.in.C, qc.in.H, qc.in.W, qc.Ksize, qc.Stride, qc.Pad, qcol)
		tensor.GemmInt8(qc.Filters, spatial, fanIn, qc.W, fanIn, qcol, spatial, qc.requant, qc.Bias, out.Batch(b).Data, spatial)
	}
	if qc.Act == layers.ActLeaky {
		tensor.Leaky(out.Data)
	}
	return out
}

type qconvCase struct {
	name                  string
	inC, h, w, filters    int
	ksize, stride, pad    int
	act                   layers.Activation
	batch                 int
	inputScale, biasScale float64
}

// newRandomQConv quantizes a random float convolution of the case's shape,
// calibrated on x's largest magnitude. Every fourth input is exactly zero
// and some biases are ±0, so zero activations, the padding and signed-zero
// outputs all occur.
func newRandomQConv(t testing.TB, tc qconvCase, rng *tensor.RNG) (*QConv, *tensor.Tensor) {
	t.Helper()
	c, err := layers.NewConv2D(layers.Shape{C: tc.inC, H: tc.h, W: tc.w}, tc.filters, tc.ksize, tc.stride, tc.pad, false, tc.act, rng)
	if err != nil {
		t.Fatal(err)
	}
	rng.FillUniform(c.Weights.W.Data, -1, 1)
	rng.FillUniform(c.Biases.W.Data, -tc.biasScale, tc.biasScale)
	for f := 0; f < tc.filters; f += 3 {
		c.Biases.W.Data[f] = float32(math.Copysign(0, float64(f%2)-0.5))
	}
	x := tensor.New(tc.batch, tc.inC, tc.h, tc.w)
	rng.FillUniform(x.Data, -tc.inputScale, tc.inputScale)
	for i := 0; i < len(x.Data); i += 4 {
		x.Data[i] = 0
	}
	qc, err := quantizeConv(c, x.MaxAbs())
	if err != nil {
		t.Fatal(err)
	}
	return qc, x
}

// infer runs l's inference pass on x into a fresh output tensor over a
// fresh scratch arena.
func infer(l layers.Layer, x *tensor.Tensor) *tensor.Tensor {
	s := l.OutShape()
	out := tensor.New(x.N, s.C, s.H, s.W)
	l.Infer(x, out, new(tensor.Arena))
	return out
}

func assertBitEqual(t testing.TB, what string, got, want *tensor.Tensor) {
	t.Helper()
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: out[%d] = %v (%#x), reference %v (%#x)", what, i,
				got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// forEachKernel runs fn once per registered kernel family, selected.
func forEachKernel(t *testing.T, fn func(t *testing.T)) {
	t.Cleanup(func() {
		if err := tensor.SelectKernel(""); err != nil {
			t.Fatal(err)
		}
	})
	for _, name := range tensor.AvailableKernels() {
		if err := tensor.SelectKernel(name); err != nil {
			t.Fatal(err)
		}
		t.Run(name, fn)
	}
}

// TestQConvMatchesIm2colReference pins QConv.Infer — the im2col-free
// tensor.ConvPrepackedInt8 — to the staged quantize → im2col → GemmInt8 →
// Leaky lowering bit for bit, on every kernel family and at GOMAXPROCS 1, 2
// and 4: panels read in place, gathered across output rows and strided,
// edge strips of every height, odd channel counts, pointwise and 5×5
// windows, and problems below the packing threshold.
func TestQConvMatchesIm2colReference(t *testing.T) {
	cases := []qconvCase{
		{"3x3 pad1 3→2 64², the routed conv1", 3, 64, 64, 2, 3, 1, 1, layers.ActLeaky, 1, 1, 0.5},
		{"3x3 pad1 2→3 32²", 2, 32, 32, 3, 3, 1, 1, layers.ActLeaky, 2, 2, 1},
		{"3x3 pad1 odd width 37x29", 5, 29, 37, 13, 3, 1, 1, layers.ActLeaky, 2, 1, 1},
		{"3x3 pad1 odd width 23x9, M 30", 4, 9, 23, 30, 3, 1, 1, layers.ActLinear, 1, 1, 1},
		{"3x3 pad0 linear", 4, 17, 23, 7, 3, 1, 0, layers.ActLinear, 1, 1, 1},
		{"3x3 stride2 pad1", 6, 31, 33, 10, 3, 2, 1, layers.ActLeaky, 2, 1, 1},
		{"3x3 stride2 pad0 odd C", 3, 20, 21, 8, 3, 2, 0, layers.ActLeaky, 1, 1, 1},
		{"5x5 pad2", 3, 24, 40, 9, 5, 1, 2, layers.ActLeaky, 1, 1, 1},
		{"5x5 stride2 pad2", 3, 25, 27, 6, 5, 2, 2, layers.ActLeaky, 1, 1, 1},
		{"1x1 pointwise", 24, 16, 16, 12, 1, 1, 0, layers.ActLeaky, 3, 1, 1},
		{"1x1 pointwise odd C, M 2", 7, 20, 20, 2, 1, 1, 0, layers.ActLeaky, 1, 1, 1},
		{"1x1 stride2", 8, 15, 15, 16, 1, 2, 0, layers.ActLinear, 1, 1, 1},
		{"1x1 pad1", 4, 12, 12, 8, 1, 1, 1, layers.ActLeaky, 1, 1, 1},
		{"1x1 linear head M 30", 64, 8, 8, 30, 1, 1, 0, layers.ActLinear, 2, 1, 1},
		{"3x3 M 3, panels cross rows", 16, 6, 6, 3, 3, 1, 1, layers.ActLeaky, 1, 1, 1},
		{"3x3 one input row", 8, 1, 100, 10, 3, 1, 1, layers.ActLeaky, 2, 1, 1},
		{"3x3 wide fan-in 64→16", 64, 10, 10, 16, 3, 1, 1, layers.ActLeaky, 1, 1, 1},
		{"below the threshold 3x3", 3, 6, 6, 4, 3, 1, 1, layers.ActLeaky, 3, 1, 1},
		{"below the threshold, strided", 2, 9, 7, 3, 3, 2, 1, layers.ActLinear, 1, 1, 1},
		{"below the threshold 6→16 4², the routed conv11", 6, 4, 4, 16, 3, 1, 1, layers.ActLeaky, 2, 1, 1},
		{"below the threshold 1x1 16→30 2²", 16, 2, 2, 30, 1, 1, 0, layers.ActLinear, 2, 1, 1},
		{"below the threshold 1x1 pad1 odd C", 3, 3, 3, 2, 1, 1, 1, layers.ActLeaky, 1, 1, 1},
		{"negative-heavy outputs", 4, 16, 16, 7, 3, 1, 1, layers.ActLeaky, 1, 1, 4},
	}
	for m := 1; m <= 13; m++ {
		cases = append(cases, qconvCase{fmt.Sprintf("3x3 3→%d 16x32", m), 3, 16, 32, m, 3, 1, 1, layers.Activation(m % 2), 1, 1, 1})
	}
	forEachKernel(t, func(t *testing.T) {
		for i, tc := range cases {
			qc, x := newRandomQConv(t, tc, tensor.NewRNG(uint64(31+i)))
			want := qconvReference(qc, x)
			prev := runtime.GOMAXPROCS(1)
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				assertBitEqual(t, fmt.Sprintf("%s, GOMAXPROCS=%d", tc.name, procs), infer(qc, x), want)
			}
			runtime.GOMAXPROCS(prev)
		}
	})
}

// TestQConvAfterKernelSwitch covers the pack/dispatch mismatch: filters
// packed under one family must give the reference bits under every other
// (the driver repacks on the fly).
func TestQConvAfterKernelSwitch(t *testing.T) {
	names := tensor.AvailableKernels()
	t.Cleanup(func() { tensor.SelectKernel("") })
	for _, packed := range names {
		if err := tensor.SelectKernel(packed); err != nil {
			t.Fatal(err)
		}
		qc, x := newRandomQConv(t, qconvCase{"switch", 5, 16, 24, 9, 3, 1, 1, layers.ActLeaky, 1, 1, 1}, tensor.NewRNG(5))
		for _, run := range names {
			if err := tensor.SelectKernel(run); err != nil {
				t.Fatal(err)
			}
			assertBitEqual(t, fmt.Sprintf("packed %s, run %s", packed, run), infer(qc, x), qconvReference(qc, x))
		}
	}
}

// FuzzQConvVsIm2colReference is TestQConvMatchesIm2colReference over fuzzed
// geometries, on every kernel family.
func FuzzQConvVsIm2colReference(f *testing.F) {
	f.Add(uint64(1), 3, 8, 8, 4, 3, 1, 1, true)
	f.Add(uint64(2), 1, 5, 7, 3, 2, 2, 0, false)
	f.Add(uint64(3), 4, 6, 6, 2, 1, 1, 0, true)
	f.Add(uint64(4), 2, 9, 4, 7, 3, 2, 2, true)
	f.Add(uint64(5), 3, 40, 40, 2, 3, 1, 1, true)
	f.Add(uint64(6), 5, 17, 19, 13, 5, 1, 2, false)
	f.Fuzz(func(t *testing.T, seed uint64, channels, height, width, filters, ksize, stride, pad int, leaky bool) {
		clamp := func(v, lo, hi int) int { return min(max(v, lo), hi) }
		tc := qconvCase{"fuzz", clamp(channels, 1, 9), clamp(height, 1, 40), clamp(width, 1, 40), clamp(filters, 1, 14),
			clamp(ksize, 1, 5), clamp(stride, 1, 3), clamp(pad, 0, 3), layers.ActLinear, 1, 1, 1}
		if leaky {
			tc.act = layers.ActLeaky
		}
		if tc.h+2*tc.pad < tc.ksize || tc.w+2*tc.pad < tc.ksize {
			t.Skip("window larger than the padded input")
		}
		defer tensor.SelectKernel("")
		for _, name := range tensor.AvailableKernels() {
			if err := tensor.SelectKernel(name); err != nil {
				t.Fatal(err)
			}
			qc, x := newRandomQConv(t, tc, tensor.NewRNG(seed))
			assertBitEqual(t, fmt.Sprintf("%s %+v", name, tc), infer(qc, x), qconvReference(qc, x))
		}
	})
}
