package imgproc

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// resizeReference is the per-pixel bilinear loop ResizeInto replaced: every
// output sample of every channel recomputes its source coordinates with a
// float64 floor. ResizeInto must equal it bit for bit.
func resizeReference(m *Image, w, h int) *Image {
	out := NewImage(w, h)
	xRatio := float64(m.W) / float64(w)
	yRatio := float64(m.H) / float64(h)
	for c := 0; c < 3; c++ {
		src := m.Pix[c*m.W*m.H:]
		dst := out.Pix[c*w*h:]
		for y := 0; y < h; y++ {
			sy := (float64(y)+0.5)*yRatio - 0.5
			y0 := int(math.Floor(sy))
			fy := float32(sy - float64(y0))
			y1 := y0 + 1
			y0c, y1c := clampInt(y0, m.H-1), clampInt(y1, m.H-1)
			for x := 0; x < w; x++ {
				sx := (float64(x)+0.5)*xRatio - 0.5
				x0 := int(math.Floor(sx))
				fx := float32(sx - float64(x0))
				x1 := x0 + 1
				x0c, x1c := clampInt(x0, m.W-1), clampInt(x1, m.W-1)
				top := src[y0c*m.W+x0c]*(1-fx) + src[y0c*m.W+x1c]*fx
				bot := src[y1c*m.W+x0c]*(1-fx) + src[y1c*m.W+x1c]*fx
				dst[y*w+x] = top*(1-fy) + bot*fy
			}
		}
	}
	return out
}

// checkResize compares Resize of a seeded random sw×sh image to w×h with
// the reference by float bits.
func checkResize(t *testing.T, seed uint64, sw, sh, w, h int) {
	t.Helper()
	m := NewImage(sw, sh)
	tensor.NewRNG(seed).FillUniform(m.Pix, -0.5, 1.5)
	got, want := m.Resize(w, h), resizeReference(m, w, h)
	for i := range want.Pix {
		if math.Float32bits(got.Pix[i]) != math.Float32bits(want.Pix[i]) {
			c, p := i/(w*h), i%(w*h)
			t.Fatalf("%dx%d → %dx%d (seed %d): channel %d pixel (%d,%d) = %v, reference %v",
				sw, sh, w, h, seed, c, p%w, p/w, got.Pix[i], want.Pix[i])
		}
	}
}

// TestResizeMatchesReference pins ResizeInto's precomputed taps to the
// per-pixel loop bit for bit: up- and down-sampling, 1-pixel sides, odd
// ratios and the serving shapes (128×96 camera frames to the 64² and 96²
// routes).
func TestResizeMatchesReference(t *testing.T) {
	shapes := [][4]int{
		{128, 96, 64, 64}, {128, 96, 96, 96}, {96, 96, 64, 64}, {64, 64, 96, 96},
		{1, 1, 5, 3}, {5, 3, 1, 1}, {1, 7, 4, 4}, {7, 1, 4, 4}, {4, 4, 1, 9},
		{3, 3, 3, 3}, {13, 11, 29, 5}, {640, 480, 96, 96}, {17, 200, 200, 17}, {600, 4, 530, 3},
	}
	for i, s := range shapes {
		checkResize(t, uint64(i+1), s[0], s[1], s[2], s[3])
	}
	rng := tensor.NewRNG(99)
	for i := 0; i < 200; i++ {
		dim := func() int { return 1 + int(rng.Uint64()%70) }
		checkResize(t, uint64(1000+i), dim(), dim(), dim(), dim())
	}
}

// FuzzResize is TestResizeMatchesReference over fuzzed geometries.
func FuzzResize(f *testing.F) {
	f.Add(uint64(1), uint8(128), uint8(96), uint8(64), uint8(64))
	f.Add(uint64(2), uint8(1), uint8(1), uint8(7), uint8(3))
	f.Add(uint64(3), uint8(33), uint8(5), uint8(2), uint8(40))
	f.Fuzz(func(t *testing.T, seed uint64, sw, sh, w, h uint8) {
		if sw == 0 || sh == 0 || w == 0 || h == 0 {
			t.Skip("empty image")
		}
		checkResize(t, seed, int(sw), int(sh), int(w), int(h))
	})
}

// TestResizeIntoAllocatesNothing pins the batch-slot path: resampling into
// an existing image allocates nothing at steady state.
func TestResizeIntoAllocatesNothing(t *testing.T) {
	m := NewImage(128, 96)
	tensor.NewRNG(7).FillUniform(m.Pix, 0, 1)
	dst := NewImage(64, 64)
	m.ResizeInto(dst)
	if allocs := testing.AllocsPerRun(20, func() { m.ResizeInto(dst) }); allocs > 0 {
		t.Fatalf("ResizeInto allocates %.1f objects per call, want 0", allocs)
	}
}

// BenchmarkResize times the camera-frame resample of the routed workload:
// 128×96 to the 64² and 96² routes, into a reused destination.
func BenchmarkResize(b *testing.B) {
	m := NewImage(128, 96)
	tensor.NewRNG(7).FillUniform(m.Pix, 0, 1)
	for _, side := range []int{64, 96} {
		b.Run(fmt.Sprintf("128x96-to-%d", side), func(b *testing.B) {
			dst := NewImage(side, side)
			b.SetBytes(int64(4 * len(dst.Pix)))
			for i := 0; i < b.N; i++ {
				m.ResizeInto(dst)
			}
		})
	}
}
