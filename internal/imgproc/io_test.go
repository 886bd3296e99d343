package imgproc

import (
	"bytes"
	"fmt"
	"image"
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

// goImageCases returns one source of every kind FromGoImage must handle:
// YCbCr at every subsample ratio, opaque and translucent RGBA, each also as
// a sub-image whose Bounds().Min is not the origin, plus the types that
// take the generic path.
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
// generic At().RGBA() conversion, compared by float bits.
func TestFromGoImageMatchesGeneric(t *testing.T) {
	for name, src := range goImageCases(t) {
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
