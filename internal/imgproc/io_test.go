package imgproc

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/color/palette"
	"image/jpeg"
	"image/png"
	"math"
	"testing"

	"repro/internal/tensor"
)

// genericFromGoImage is the At().RGBA() conversion FromGoImage's typed
// paths must reproduce bit for bit.
func genericFromGoImage(src image.Image) *Image {
	b := src.Bounds()
	m := NewImage(b.Dx(), b.Dy())
	for y := 0; y < b.Dy(); y++ {
		for x := 0; x < b.Dx(); x++ {
			r, g, bl, _ := src.At(b.Min.X+x, b.Min.Y+y).RGBA()
			m.SetRGB(x, y, float32(r)/65535, float32(g)/65535, float32(bl)/65535)
		}
	}
	return m
}

// noise fills buf with deterministic pseudo-random bytes.
func noise(buf []byte, seed uint64) {
	rng := tensor.NewRNG(seed)
	for i := range buf {
		buf[i] = byte(rng.Intn(256))
	}
}

// forEachKernel runs fn once under every registered kernel family.
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

// goImageCases returns one source of every kind FromGoImage must handle:
// YCbCr at every subsample ratio, opaque and translucent RGBA, each also as
// a sub-image whose Bounds().Min is not the origin, plus the types that
// take the generic path. Frame-sized YCbCr cases give a vector row kernel
// many blocks, a tail (250 wide) and an even and an odd left edge.
func goImageCases(t testing.TB) map[string]image.Image {
	t.Helper()
	r := image.Rect(3, 5, 20, 16) // odd origin and sides
	sub := image.Rect(6, 7, 17, 15)
	cases := map[string]image.Image{}
	ratios := []image.YCbCrSubsampleRatio{
		image.YCbCrSubsampleRatio444, image.YCbCrSubsampleRatio422, image.YCbCrSubsampleRatio420,
		image.YCbCrSubsampleRatio440, image.YCbCrSubsampleRatio411, image.YCbCrSubsampleRatio410,
	}
	for i, ratio := range ratios {
		m := image.NewYCbCr(r, ratio)
		noise(m.Y, uint64(3*i+1))
		noise(m.Cb, uint64(3*i+2))
		noise(m.Cr, uint64(3*i+3))
		cases["ycbcr-"+ratio.String()] = m
		cases["ycbcr-"+ratio.String()+"-sub"] = m.SubImage(sub)
		// A negative origin, where x>>1 and x/2 differ.
		neg := image.NewYCbCr(image.Rect(-7, -5, 10, 6), ratio)
		noise(neg.Y, uint64(3*i+20))
		noise(neg.Cb, uint64(3*i+21))
		noise(neg.Cr, uint64(3*i+22))
		cases["ycbcr-"+ratio.String()+"-negative"] = neg
	}
	for i, ratio := range ratios[:4] { // the ratios a row kernel takes
		for name, rect := range map[string]image.Rectangle{
			"256x256":     image.Rect(0, 0, 256, 256),
			"250-even-at": image.Rect(2, 4, 252, 9),
			"250-odd-at":  image.Rect(7, 3, 257, 8),
		} {
			m := image.NewYCbCr(rect, ratio)
			noise(m.Y, uint64(3*i+60))
			noise(m.Cb, uint64(3*i+61))
			noise(m.Cr, uint64(3*i+62))
			cases["ycbcr-"+ratio.String()+"-"+name] = m
		}
	}
	opaque := image.NewRGBA(r)
	noise(opaque.Pix, 40)
	for i := 3; i < len(opaque.Pix); i += 4 {
		opaque.Pix[i] = 0xff
	}
	cases["rgba-opaque"] = opaque
	cases["rgba-opaque-sub"] = opaque.SubImage(sub)
	translucent := image.NewRGBA(r)
	noise(translucent.Pix, 41)
	cases["rgba-translucent"] = translucent
	cases["rgba-translucent-sub"] = translucent.SubImage(sub)

	nrgba := image.NewNRGBA(r)
	noise(nrgba.Pix, 42)
	cases["nrgba"] = nrgba
	gray := image.NewGray(r)
	noise(gray.Pix, 43)
	cases["gray"] = gray
	pal := image.NewPaletted(r, palette.Plan9)
	noise(pal.Pix, 44)
	cases["paletted"] = pal
	rgba64 := image.NewRGBA64(r)
	noise(rgba64.Pix, 45)
	cases["rgba64"] = rgba64
	nrgba64 := image.NewNRGBA64(r)
	noise(nrgba64.Pix, 46)
	cases["nrgba64"] = nrgba64
	gray16 := image.NewGray16(r)
	noise(gray16.Pix, 47)
	cases["gray16"] = gray16

	// The decoders' own output: a 4:2:0 JPEG and an opaque PNG (which
	// decodes to *image.RGBA).
	var buf bytes.Buffer
	if err := jpeg.Encode(&buf, opaque, &jpeg.Options{Quality: 90}); err != nil {
		t.Fatal(err)
	}
	dec, err := jpeg.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cases["jpeg-decoded"] = dec
	frame := image.NewRGBA(image.Rect(0, 0, 256, 256))
	noise(frame.Pix, 48)
	buf.Reset()
	if err := jpeg.Encode(&buf, frame, nil); err != nil {
		t.Fatal(err)
	}
	if dec, err = jpeg.Decode(&buf); err != nil {
		t.Fatal(err)
	}
	if ratio := dec.(*image.YCbCr).SubsampleRatio; ratio != image.YCbCrSubsampleRatio420 {
		t.Fatalf("jpeg.Encode wrote %v, want 4:2:0", ratio)
	}
	cases["jpeg-256x256"] = dec
	cases["jpeg-256x256-odd-sub"] = dec.(*image.YCbCr).SubImage(image.Rect(3, 1, 254, 255))
	buf.Reset()
	if err := png.Encode(&buf, opaque); err != nil {
		t.Fatal(err)
	}
	if dec, err = png.Decode(&buf); err != nil {
		t.Fatal(err)
	}
	cases["png-decoded"] = dec
	return cases
}

// TestFromGoImageMatchesGeneric pins FromGoImage's typed fast paths to the
// generic At().RGBA() conversion, compared by float bits, under every
// kernel family.
func TestFromGoImageMatchesGeneric(t *testing.T) {
	cases := goImageCases(t)
	forEachKernel(t, func(t *testing.T) {
		for name, src := range cases {
			got, want := FromGoImage(src), genericFromGoImage(src)
			if got.W != want.W || got.H != want.H {
				t.Errorf("%s (%T): %dx%d, want %dx%d", name, src, got.W, got.H, want.W, want.H)
				continue
			}
			for i := range want.Pix {
				if math.Float32bits(got.Pix[i]) != math.Float32bits(want.Pix[i]) {
					t.Errorf("%s (%T): sample %d = %v, want %v", name, src, i, got.Pix[i], want.Pix[i])
					break
				}
			}
		}
	})
}

// TestYCbCrRowKernelExhaustive holds every family's YCbCr row kernel to
// color.YCbCr.RGBA on all 2^24 (Y, Cb, Cr) triples, at both chroma shifts
// it takes: float32(v)/65535 of each channel, compared by bits. Under
// -short it checks one Y value in seventeen.
func TestYCbCrRowKernelExhaustive(t *testing.T) {
	step := 1
	if testing.Short() {
		step = 17
	}
	const pairs = 1 << 16 // every (Cb, Cr)
	forEachKernel(t, func(t *testing.T) {
		vec := tensor.YCbCrRowKernel()
		if vec == nil {
			t.Skip("no YCbCr row kernel in this family")
		}
		cb, cr := make([]byte, pairs), make([]byte, pairs)
		for j := range cb {
			cb[j], cr[j] = byte(j), byte(j>>8)
		}
		for hs := uint(0); hs <= 1; hs++ {
			n := pairs << hs
			y := make([]byte, n)
			r, g, b := make([]float32, n), make([]float32, n), make([]float32, n)
			// At hs 1 the two pixels of a chroma pair carry Y and 255−Y, so
			// Y values 0–127 cover every triple.
			for yv := 0; yv < 256>>hs; yv += step {
				for i := range y {
					y[i] = byte(yv ^ -(i & int(hs)))
				}
				if got := vec(y, cb, cr, hs, r, g, b); got != n {
					t.Fatalf("hs %d: converted %d of %d pixels", hs, got, n)
				}
				for i := range y {
					c := color.YCbCr{Y: y[i], Cb: cb[i>>hs], Cr: cr[i>>hs]}
					wr, wg, wb, _ := c.RGBA()
					if math.Float32bits(r[i]) != math.Float32bits(float32(wr)/65535) ||
						math.Float32bits(g[i]) != math.Float32bits(float32(wg)/65535) ||
						math.Float32bits(b[i]) != math.Float32bits(float32(wb)/65535) {
						t.Fatalf("hs %d: %+v -> (%v, %v, %v), want %d, %d, %d /65535", hs, c, r[i], g[i], b[i], wr, wg, wb)
					}
				}
			}
		}
	})
}

// BenchmarkFromGoImage times the /detect/raw conversion on what the
// decoders return for a 256x256 JPEG and a 128x96 PNG.
func BenchmarkFromGoImage(b *testing.B) {
	for _, c := range []struct {
		name string
		w, h int
		enc  func(*bytes.Buffer, image.Image) error
	}{
		{"jpeg-256x256", 256, 256, func(buf *bytes.Buffer, m image.Image) error { return jpeg.Encode(buf, m, nil) }},
		{"png-128x96", 128, 96, func(buf *bytes.Buffer, m image.Image) error { return png.Encode(buf, m) }},
	} {
		src := image.NewRGBA(image.Rect(0, 0, c.w, c.h))
		for i := range src.Pix {
			src.Pix[i] = byte(i * 7)
			if i%4 == 3 {
				src.Pix[i] = 0xff
			}
		}
		var buf bytes.Buffer
		if err := c.enc(&buf, src); err != nil {
			b.Fatal(err)
		}
		dec, _, err := image.Decode(&buf)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s/%T", c.name, dec), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				FromGoImage(dec)
			}
		})
	}
}
