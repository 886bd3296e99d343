package layers

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// convReference is the staged lowering the fused inference path must equal
// bit for bit: tensor.Im2col → tensor.Gemm → rolling-statistics batch norm →
// bias → leaky-ReLU, each as its own pass over the output and with the
// activation in its branchy textbook form.
func convReference(c *Conv2D, x *tensor.Tensor) *tensor.Tensor {
	m, k, n := c.Filters, c.in.C*c.Ksize*c.Ksize, c.out.H*c.out.W
	out := tensor.New(x.N, c.out.C, c.out.H, c.out.W)
	col := make([]float32, k*n)
	for b := 0; b < x.N; b++ {
		tensor.Im2col(x.Batch(b).Data, c.in.C, c.in.H, c.in.W, c.Ksize, c.Stride, c.Pad, col)
		tensor.Gemm(false, false, m, n, k, 1, c.Weights.W.Data, k, col, n, 0, out.Batch(b).Data, n)
	}
	for b := 0; b < x.N; b++ {
		d := out.Batch(b).Data
		for f := 0; f < m; f++ {
			seg := d[f*n : (f+1)*n]
			if c.BatchNorm {
				inv := 1 / sqrt32(c.RollingVar.Data[f]+bnEps)
				mu, gamma := c.RollingMean.Data[f], c.Scales.W.Data[f]
				for i, v := range seg {
					seg[i] = gamma * (v - mu) * inv
				}
			}
			for i := range seg {
				seg[i] += c.Biases.W.Data[f]
			}
			if c.Act == ActLeaky {
				for i, v := range seg {
					if v < 0 {
						seg[i] = tensor.LeakySlope * v
					}
				}
			}
		}
	}
	return out
}

// convCase is one geometry of the exactness table.
type convCase struct {
	name                        string
	inC, h, w                   int
	filters, ksize, stride, pad int
	bn                          bool
	act                         Activation
	batch                       int
}

// newRandomConv builds the case's layer with every parameter and rolling
// statistic randomized, so no epilogue stage is an identity.
func newRandomConv(t testing.TB, tc convCase, rng *tensor.RNG) *Conv2D {
	t.Helper()
	c, err := NewConv2D(Shape{C: tc.inC, H: tc.h, W: tc.w}, tc.filters, tc.ksize, tc.stride, tc.pad, tc.bn, tc.act, rng)
	if err != nil {
		t.Fatal(err)
	}
	rng.FillUniform(c.Biases.W.Data, -0.5, 0.5)
	if tc.bn {
		rng.FillUniform(c.Scales.W.Data, 0.5, 1.5)
		rng.FillUniform(c.RollingMean.Data, -0.3, 0.3)
		rng.FillUniform(c.RollingVar.Data, 0.2, 2)
	}
	return c
}

// forEachKernel runs fn under every registered microkernel family, restoring
// the process selection afterwards.
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

func assertBitEqual(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: out[%d] = %v (%#x), reference %v (%#x)", what, i,
				got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// plantSpecials zeroes about one weight in five (+0 and −0 in turn) and
// sets about one input in 29 to −0, NaN, +Inf or −Inf in turn. Below the
// packing threshold a zero weight is skipped, so a zero weight against an
// infinite or NaN input tells the skip from a product taken; above it the
// kernels take every product, as the reference does.
func plantSpecials(c *Conv2D, x *tensor.Tensor, rng *tensor.RNG) {
	negZero := float32(math.Copysign(0, -1))
	for i := range c.Weights.W.Data {
		if rng.Intn(5) == 0 {
			c.Weights.W.Data[i] = [2]float32{0, negZero}[i%2]
		}
	}
	specials := []float32{negZero, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for i := range x.Data {
		if rng.Intn(29) == 0 {
			x.Data[i] = specials[i%len(specials)]
		}
	}
}

// finishCases are the geometries of the finishing direct kernel's live-row
// and grouped-panel paths: 3×3 3→M convolutions for M = 1…5, 7 and 8 (a
// strip of M or M−6 live filters) on maps 16·P wide for P = 1, 2, 3, 5 and 6
// direct panels per output row, so every grouping of adjacent panels (6/r
// panels for a strip of r ≤ 3 filters) ends in a remainder somewhere, each
// map just tall enough to stay above the packing threshold.
func finishCases() []convCase {
	var cases []convCase
	for _, m := range []int{1, 2, 3, 4, 5, 7, 8} {
		for _, p := range []int{1, 2, 3, 5, 6} {
			w := 16 * p
			h := (1<<15)/(m*27*w) + 2
			cases = append(cases, convCase{fmt.Sprintf("3x3 3→%d %dx%d, %d direct panels a row", m, h, w, p),
				3, h, w, m, 3, 1, 1, m%2 == 1, Activation(m % 2), 1})
		}
	}
	return cases
}

// TestConvInferMatchesIm2colReference pins Conv2D.Infer to the
// staged reference bit for bit, for every kernel family and at GOMAXPROCS
// 1/2/4: panels that stay inside an output row, straddle rows (8×8, 6×6),
// end in a partial panel, hit the padding on every side, strided and
// pointwise geometries, a fan-in above kcBlock (clear on the first K block,
// epilogue on the last only), panels read in place by a direct kernel next
// to an edge strip of fewer than MR filters, the finishing kernel's live
// rows and panel groups (finishCases), problems below the packing threshold
// — padded, pointwise, strided, with n < 8 and n % 8 ≠ 0 — and batches of
// 1/3/8. The special cases rerun a sample of these with zero weights and
// −0, NaN and ±Inf inputs planted (plantSpecials).
func TestConvInferMatchesIm2colReference(t *testing.T) {
	cases := []convCase{
		{"3x3 pad1 96 wide, bn leaky", 3, 20, 96, 8, 3, 1, 1, true, ActLeaky, 1},
		{"3x3 pad1 8x8 rows share a panel", 12, 8, 8, 48, 3, 1, 1, true, ActLeaky, 3},
		{"3x3 pad1 6x6", 24, 6, 6, 64, 3, 1, 1, true, ActLeaky, 1},
		{"3x3 pad1 odd width 37x29", 5, 29, 37, 13, 3, 1, 1, true, ActLeaky, 3},
		{"3x3 pad0 linear no bn", 4, 17, 23, 7, 3, 1, 0, false, ActLinear, 1},
		{"3x3 stride2 pad1", 6, 31, 33, 10, 3, 2, 1, true, ActLeaky, 3},
		{"5x5 pad2", 3, 24, 40, 9, 5, 1, 2, true, ActLeaky, 1},
		{"5x5 stride2 pad2 no bn leaky", 3, 25, 27, 6, 5, 2, 2, false, ActLeaky, 1},
		{"1x1 pointwise", 24, 16, 16, 12, 1, 1, 0, true, ActLeaky, 8},
		{"1x1 stride2", 8, 15, 15, 16, 1, 2, 0, true, ActLinear, 1},
		{"1x1 linear head 8x8", 64, 8, 8, 30, 1, 1, 0, false, ActLinear, 3},
		{"fan-in 288 spans two K blocks", 32, 12, 20, 14, 3, 1, 1, true, ActLeaky, 3},
		{"fan-in 800 spans four K blocks", 32, 9, 11, 7, 5, 1, 2, false, ActLeaky, 1},
		{"3x3 3→8 64², direct panels beside a short edge strip", 3, 64, 64, 8, 3, 1, 1, true, ActLeaky, 1},
		{"3x3 8→12 32², direct panels", 8, 32, 32, 12, 3, 1, 1, false, ActLeaky, 1},
		{"1x1 12→8 32², direct pointwise beside a short edge strip", 12, 32, 32, 8, 1, 1, 0, true, ActLinear, 2},
		{"below the packing threshold", 3, 6, 6, 4, 3, 1, 1, true, ActLeaky, 3},
		{"below the threshold, strided no bn", 2, 9, 7, 3, 3, 2, 1, false, ActLinear, 1},
		{"3x3 24→64 16², every panel touches the padding", 24, 16, 16, 64, 3, 1, 1, true, ActLeaky, 2},
		{"3x3 12→48 32², every panel touches the padding", 12, 32, 32, 48, 3, 1, 1, true, ActLeaky, 1},
		{"3x3 24², row-crossing panels on the padded plane", 5, 24, 24, 10, 3, 1, 1, true, ActLeaky, 2},
		{"3x3 12x20, row-crossing panels", 6, 12, 20, 9, 3, 1, 1, false, ActLeaky, 1},
		{"3x3 6², every panel crosses rows", 16, 6, 6, 11, 3, 1, 1, true, ActLinear, 1},
		{"5x5 pad2 16x32", 4, 16, 32, 8, 5, 1, 2, true, ActLeaky, 1},
		{"3x3 one input row", 8, 1, 100, 10, 3, 1, 1, true, ActLeaky, 2},
	}
	for m := 7; m <= 11; m++ {
		cases = append(cases, convCase{fmt.Sprintf("3x3 3→%d 16x32, finished edge strip of %d", m, m-6),
			3, 16, 32, m, 3, 1, 1, m%2 == 0, Activation(m % 2), 1})
	}
	cases = append(cases, finishCases()...)
	subThreshold := []convCase{
		{"below the threshold, 3x3 pad1 6x6 16 filters", 6, 6, 6, 16, 3, 1, 1, true, ActLeaky, 2},
		{"below the threshold, 3x3 pad1 n=5", 4, 1, 5, 9, 3, 1, 1, true, ActLeaky, 1},
		{"below the threshold, 3x3 pad1 n=21", 3, 3, 7, 5, 3, 1, 1, false, ActLinear, 1},
		{"below the threshold, 1x1 n=9 30 filters", 16, 3, 3, 30, 1, 1, 0, false, ActLinear, 2},
		{"below the threshold, 1x1 n=7", 8, 1, 7, 6, 1, 1, 0, true, ActLeaky, 1},
		{"below the threshold, 1x1 n=44", 12, 4, 11, 6, 1, 1, 0, true, ActLeaky, 1},
		{"below the threshold, 3x3 pad0 n=15", 5, 5, 7, 4, 3, 1, 0, true, ActLeaky, 1},
		{"below the threshold, 1x1 stride2 n=12", 3, 7, 5, 2, 1, 2, 0, true, ActLeaky, 1},
	}
	cases = append(cases, subThreshold...)
	specials := append([]convCase{
		{"specials, 3x3 3→8 64², direct panels beside a short edge strip", 3, 64, 64, 8, 3, 1, 1, true, ActLeaky, 1},
		{"specials, 1x1 12→8 32², direct pointwise", 12, 32, 32, 8, 1, 1, 0, true, ActLinear, 1},
		{"specials, 3x3 stride2 pad1", 6, 31, 33, 10, 3, 2, 1, true, ActLeaky, 1},
		{"specials, fan-in 288 spans two K blocks", 32, 12, 20, 14, 3, 1, 1, true, ActLeaky, 1},
	}, subThreshold...)
	for _, p := range []int{1, 3, 6} {
		for _, m := range []int{2, 3, 5} {
			w := 16 * p
			specials = append(specials, convCase{fmt.Sprintf("specials, 3x3 3→%d %d wide", m, w),
				3, (1<<15)/(m*27*w) + 2, w, m, 3, 1, 1, true, ActLeaky, 1})
		}
	}
	forEachKernel(t, func(t *testing.T) {
		for i, tc := range append(cases, specials...) {
			rng := tensor.NewRNG(uint64(len(tc.name)) + 11)
			c := newRandomConv(t, tc, rng)
			x := randInput(rng, tc.batch, tc.inC, tc.h, tc.w)
			if i >= len(cases) {
				plantSpecials(c, x, rng)
			}
			prev := runtime.GOMAXPROCS(1)
			want := convReference(c, x)
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				got := infer(c, x)
				assertBitEqual(t, fmt.Sprintf("%s, GOMAXPROCS=%d", tc.name, procs), got, want)
			}
			runtime.GOMAXPROCS(prev)
		}
	})
}

// TestConvInferAfterKernelSwitch covers the pack/dispatch mismatch: filters
// pre-packed under one family must still produce the reference bits of the
// family active at Infer time (the driver repacks on the fly).
func TestConvInferAfterKernelSwitch(t *testing.T) {
	names := tensor.AvailableKernels()
	tc := convCase{"switch", 8, 16, 24, 12, 3, 1, 1, true, ActLeaky, 1}
	rng := tensor.NewRNG(5)
	c := newRandomConv(t, tc, rng)
	x := randInput(rng, 1, tc.inC, tc.h, tc.w)
	if err := tensor.SelectKernel(names[0]); err != nil {
		t.Fatal(err)
	}
	c.inferencePack()
	forEachKernel(t, func(t *testing.T) {
		assertBitEqual(t, "packed for "+names[0], infer(c, x), convReference(c, x))
	})
}

// FuzzConvImplicitVsIm2col drives the same bit-for-bit comparison over
// fuzzer-chosen geometries, through every registered kernel family at
// GOMAXPROCS 1/2/4. Flag bit 3 plants zero weights and −0, NaN and ±Inf
// inputs (plantSpecials). The seeds include the finishing kernel's thin
// strips on 1, 2, 3, 5 and 6 direct panels a row and sub-threshold maps of
// fewer than eight outputs and of n % 8 ≠ 0.
func FuzzConvImplicitVsIm2col(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(20), uint8(96), uint8(8), uint8(1), uint8(0), uint8(1), uint8(3))
	f.Add(uint64(2), uint8(12), uint8(8), uint8(8), uint8(48), uint8(1), uint8(0), uint8(1), uint8(1))
	f.Add(uint64(3), uint8(32), uint8(9), uint8(11), uint8(7), uint8(2), uint8(1), uint8(2), uint8(0))
	f.Add(uint64(4), uint8(24), uint8(16), uint8(16), uint8(12), uint8(0), uint8(0), uint8(0), uint8(2))
	f.Add(uint64(5), uint8(3), uint8(39), uint8(96), uint8(2), uint8(1), uint8(0), uint8(1), uint8(11))
	f.Add(uint64(6), uint8(2), uint8(39), uint8(48), uint8(3), uint8(1), uint8(0), uint8(1), uint8(3))
	f.Add(uint64(7), uint8(3), uint8(39), uint8(80), uint8(1), uint8(1), uint8(0), uint8(1), uint8(9))
	f.Add(uint64(8), uint8(3), uint8(39), uint8(16), uint8(7), uint8(1), uint8(0), uint8(1), uint8(1))
	f.Add(uint64(9), uint8(3), uint8(30), uint8(32), uint8(4), uint8(1), uint8(0), uint8(1), uint8(8))
	f.Add(uint64(10), uint8(6), uint8(6), uint8(6), uint8(16), uint8(1), uint8(0), uint8(1), uint8(11))
	f.Add(uint64(11), uint8(16), uint8(3), uint8(3), uint8(30), uint8(0), uint8(0), uint8(0), uint8(8))
	f.Add(uint64(12), uint8(5), uint8(1), uint8(7), uint8(4), uint8(1), uint8(0), uint8(1), uint8(9))
	f.Fuzz(func(t *testing.T, seed uint64, inC, h, w, filters, kHalf, strideM1, pad, flags uint8) {
		tc := convCase{
			name: "fuzz",
			inC:  int(inC)%33 + 1, h: int(h)%40 + 1, w: int(w)%100 + 1,
			filters: int(filters)%50 + 1, ksize: 2*(int(kHalf)%3) + 1, stride: int(strideM1)%2 + 1, pad: int(pad) % 3,
			bn: flags&1 != 0, act: Activation(flags >> 1 & 1), batch: 1 + int(flags>>2&1),
		}
		if tensor.ConvOutSize(tc.h, tc.ksize, tc.stride, tc.pad) <= 0 || tensor.ConvOutSize(tc.w, tc.ksize, tc.stride, tc.pad) <= 0 {
			t.Skip("kernel larger than the padded input")
		}
		rng := tensor.NewRNG(seed)
		c := newRandomConv(t, tc, rng)
		x := randInput(rng, tc.batch, tc.inC, tc.h, tc.w)
		if flags&8 != 0 {
			plantSpecials(c, x, rng)
		}
		forEachKernel(t, func(t *testing.T) {
			prev := runtime.GOMAXPROCS(1)
			defer runtime.GOMAXPROCS(prev)
			want := convReference(c, x)
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				assertBitEqual(t, fmt.Sprintf("%+v GOMAXPROCS=%d", tc, procs), infer(c, x), want)
			}
		})
	})
}

// BenchmarkConvForwardDroNet256 measures the inference convolution — pack,
// GEMM and epilogue in one — at the nine conv shapes of DroNet's 256×256
// forward, reporting achieved GFLOP/s per shape (2 ops per MAC).
func BenchmarkConvForwardDroNet256(b *testing.B) {
	for i, tc := range []convCase{
		{inC: 3, h: 256, filters: 8, ksize: 3},
		{inC: 8, h: 128, filters: 12, ksize: 3},
		{inC: 12, h: 64, filters: 8, ksize: 1},
		{inC: 8, h: 64, filters: 24, ksize: 3},
		{inC: 24, h: 32, filters: 12, ksize: 1},
		{inC: 12, h: 32, filters: 48, ksize: 3},
		{inC: 48, h: 16, filters: 24, ksize: 1},
		{inC: 24, h: 16, filters: 64, ksize: 3},
		{inC: 64, h: 8, filters: 30, ksize: 1},
	} {
		tc.w, tc.stride, tc.pad, tc.bn, tc.act = tc.h, 1, tc.ksize/2, i < 8, ActLeaky
		b.Run(fmt.Sprintf("conv%d_%dx%d_c%d_f%d_k%d", i+1, tc.h, tc.w, tc.inC, tc.filters, tc.ksize), func(b *testing.B) {
			rng := tensor.NewRNG(1)
			c := newRandomConv(b, tc, rng)
			x := randInput(rng, 1, tc.inC, tc.h, tc.w)
			out := infer(c, x)
			var a tensor.Arena
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Reset()
				c.Infer(x, out, &a)
			}
			b.ReportMetric(float64(c.FLOPs())*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
