package layers

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// poolSpecials are the values on which a max can go wrong: both zeros (equal
// under >, different bits), both infinities and both NaN signs.
var poolSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.NaN()), -float32(math.NaN()),
}

// poolInput fills a batch with values in [lo, hi), replacing roughly one
// element in `every` with a special (every == 0: none).
func poolInput(rng *tensor.RNG, n int, s Shape, lo, hi float64, every int) *tensor.Tensor {
	x := tensor.New(n, s.C, s.H, s.W)
	rng.FillUniform(x.Data, lo, hi)
	if every > 0 {
		for i := range x.Data {
			if rng.Intn(every) == 0 {
				x.Data[i] = poolSpecials[rng.Intn(len(poolSpecials))]
			}
		}
	}
	return x
}

// checkPoolFastVsGeneric asserts the inference pass equals the generic
// window loop bit for bit, and that a training Forward agrees with both and
// records the argmax of every window.
func checkPoolFastVsGeneric(t *testing.T, p *MaxPool, x *tensor.Tensor) {
	t.Helper()
	want := tensor.New(x.N, p.out.C, p.out.H, p.out.W)
	p.forwardWindows(x, want, false)
	assertBitEqual(t, p.Name()+" inference", infer(p, x), want)

	trained := p.Forward(x)
	assertBitEqual(t, p.Name()+" training", trained, want)
	for b := 0; b < x.N; b++ {
		for i, v := range trained.Batch(b).Data {
			src := p.st.idx[b*p.out.Size()+i]
			if src < 0 {
				if v != 0 {
					t.Fatalf("%s: out[%d,%d] = %v with no argmax, want 0", p.Name(), b, i, v)
				}
				continue
			}
			if got := x.Batch(b).Data[src]; math.Float32bits(got) != math.Float32bits(v) {
				t.Fatalf("%s: argmax of out[%d,%d] points at %v, output is %v", p.Name(), b, i, got, v)
			}
		}
	}
}

// plantWindows overwrites roughly one window in every of each plane's
// stride-2 windows with a poolWindows window — the NaNs, zero ties and
// all −Inf windows a vector block must hand back to max2x2 — leaving the
// blocks around it to the vector path.
func plantWindows(rng *tensor.RNG, x *tensor.Tensor, every int) *tensor.Tensor {
	h, w := x.H, x.W
	for plane := 0; plane < x.N*x.C; plane++ {
		d := x.Data[plane*h*w : (plane+1)*h*w]
		for r := 0; r+1 < h; r += 2 {
			for c := 0; c+1 < w; c += 2 {
				if rng.Intn(every) == 0 {
					win := poolWindows[rng.Intn(len(poolWindows))].window
					d[r*w+c], d[r*w+c+1], d[(r+1)*w+c], d[(r+1)*w+c+1] = win[0], win[1], win[2], win[3]
				}
			}
		}
	}
	return x
}

// TestMaxPoolFastMatchesGeneric covers the 2×2 geometries the fast path
// accepts — even and odd inputs (ceil-mode edge windows), the stride-1 pad-1
// pool of Tiny-YOLO, unpadded floor mode, one-pixel-wide planes, and planes
// wide enough for the vector stride-2 blocks — on mixed, all-negative,
// special-value-laden and sparsely planted inputs, under every kernel family.
func TestMaxPoolFastMatchesGeneric(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := tensor.NewRNG(31)
		for _, g := range []struct{ h, w, stride, pad int }{
			{8, 8, 2, -1}, {13, 13, 2, -1}, {7, 10, 2, -1}, {10, 7, 2, -1},
			{13, 13, 1, -1}, {4, 9, 1, -1},
			{8, 8, 2, 0}, {9, 11, 2, 0}, {5, 5, 1, 0},
			{1, 1, 2, -1}, {1, 6, 2, -1}, {6, 1, 2, -1}, {1, 5, 1, -1}, {2, 2, 2, 0},
			{11, 14, 3, -1}, {12, 12, 3, 0},
			{40, 40, 2, -1}, {33, 64, 2, -1}, {256, 256, 2, -1}, {33, 64, 2, 0}, {40, 40, 1, -1},
		} {
			p, err := NewMaxPool(Shape{C: 3, H: g.h, W: g.w}, 2, g.stride, g.pad)
			if err != nil {
				t.Fatal(err)
			}
			checkPoolFastVsGeneric(t, p, poolInput(rng, 2, p.in, -1, 1, 0))
			checkPoolFastVsGeneric(t, p, poolInput(rng, 2, p.in, -3, -0.5, 0)) // all-negative planes
			checkPoolFastVsGeneric(t, p, poolInput(rng, 2, p.in, -1, 1, 3))    // specials in most windows
			checkPoolFastVsGeneric(t, p, plantWindows(rng, poolInput(rng, 2, p.in, -1, 1, 0), 20))
		}
	})
}

// poolWindows are hand-made windows for the tie and NaN rules: the first
// zero in scan order wins whatever its sign, NaNs are never selected, and a
// window with nothing above -Inf yields 0.
var poolWindows = func() []struct {
	window [4]float32
	want   float32
} {
	nz, nan, ninf := float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(-1))
	return []struct {
		window [4]float32
		want   float32
	}{
		{[4]float32{-1, nz, 0, -1}, nz},
		{[4]float32{-1, 0, nz, -1}, 0},
		{[4]float32{nz, nz, nz, 0}, nz},
		{[4]float32{nan, 1, nan, 2}, 2},
		{[4]float32{nan, nan, nan, nan}, 0},
		{[4]float32{ninf, ninf, ninf, ninf}, 0},
		{[4]float32{ninf, nan, -5, ninf}, -5},
		{[4]float32{nan, nz, nan, ninf}, nz},
	}
}()

// TestMaxPoolSignedZeroAndNaNWindows pins the poolWindows rules on single
// windows.
func TestMaxPoolSignedZeroAndNaNWindows(t *testing.T) {
	for _, tc := range poolWindows {
		p, err := NewMaxPool(Shape{C: 1, H: 2, W: 2}, 2, 2, -1)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.New(1, 1, 2, 2)
		copy(x.Data, tc.window[:])
		if got := infer(p, x).Data[0]; math.Float32bits(got) != math.Float32bits(tc.want) {
			t.Errorf("window %v: got %v (%#x), want %v (%#x)", tc.window, got, math.Float32bits(got), tc.want, math.Float32bits(tc.want))
		}
		checkPoolFastVsGeneric(t, p, x)
	}
}

// FuzzMaxPoolFastVsGeneric holds the fast path to the generic loop on
// fuzzer-chosen plane sizes, strides, padding and special-value density.
func FuzzMaxPoolFastVsGeneric(f *testing.F) {
	f.Add(uint64(1), uint8(13), uint8(13), uint8(1), uint8(1), uint8(4))
	f.Add(uint64(2), uint8(8), uint8(8), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(3), uint8(1), uint8(7), uint8(1), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, h, w, strideM1, pad, every uint8) {
		in := Shape{C: 2, H: int(h)%40 + 1, W: int(w)%40 + 1}
		p, err := NewMaxPool(in, 2, int(strideM1)%3+1, int(pad)%2)
		if err != nil {
			t.Skip(err)
		}
		checkPoolFastVsGeneric(t, p, poolInput(tensor.NewRNG(seed), 2, in, -1, 1, int(every)%8))
	})
}

// BenchmarkMaxPool2x2 measures the inference pool at the five shapes of
// DroNet's 256×256 forward, on uniform random activations (the worst case
// for a comparison-driven branch).
func BenchmarkMaxPool2x2(b *testing.B) {
	for _, s := range []Shape{{8, 256, 256}, {12, 128, 128}, {24, 64, 64}, {48, 32, 32}, {64, 16, 16}} {
		b.Run(fmt.Sprintf("c%d_%dx%d", s.C, s.H, s.W), func(b *testing.B) {
			p, err := NewMaxPool(s, 2, 2, -1)
			if err != nil {
				b.Fatal(err)
			}
			x := poolInput(tensor.NewRNG(1), 1, s, -1, 1, 0)
			out := infer(p, x)
			b.SetBytes(4 * int64(s.Size()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Infer(x, out, nil)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(p.out.Size()), "ns/out")
		})
	}
}
