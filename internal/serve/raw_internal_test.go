package serve

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"image"
	"image/color"
	"image/color/palette"
	"image/jpeg"
	"image/png"
	"math"
	"testing"

	"repro/internal/imgproc"
)

// rawSeeds are the /detect/raw bodies FuzzDecodeRaw starts from: each
// decoder output type the conversion distinguishes, a declared size far past
// maxImageDim, and a body cut short.
func rawSeeds(t testing.TB) [][]byte {
	t.Helper()
	const w, h = 16, 12
	rgba := image.NewRGBA(image.Rect(0, 0, w, h))
	nrgba := image.NewNRGBA(rgba.Rect)
	gray := image.NewGray(rgba.Rect)
	pal := image.NewPaletted(rgba.Rect, palette.WebSafe)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := color.RGBA{R: uint8(16 * x), G: uint8(20 * y), B: uint8(x * y), A: 0xff}
			rgba.SetRGBA(x, y, c)
			nrgba.SetNRGBA(x, y, color.NRGBA{R: c.R, G: c.G, B: c.B, A: uint8(20 * x)})
			gray.SetGray(x, y, color.Gray{Y: c.R})
			pal.Set(x, y, c)
		}
	}
	encode := func(enc func(*bytes.Buffer) error) []byte {
		var buf bytes.Buffer
		if err := enc(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	pngOf := func(m image.Image) []byte {
		return encode(func(b *bytes.Buffer) error { return png.Encode(b, m) })
	}
	// jpeg.Encode writes 4:2:0 chroma for a colour source.
	jpg := encode(func(b *bytes.Buffer) error { return jpeg.Encode(b, rgba, nil) })

	// A valid PNG whose IHDR claims 100000x100000 (CRC fixed up), so only
	// the dimension check stands between it and the pixel decode.
	bomb := pngOf(gray)
	ihdr := bomb[8+8 : 8+8+13] // after the signature and the chunk's length + type
	binary.BigEndian.PutUint32(ihdr[0:], 100000)
	binary.BigEndian.PutUint32(ihdr[4:], 100000)
	binary.BigEndian.PutUint32(bomb[8+8+13:], crc32.ChecksumIEEE(bomb[8+4:8+8+13]))

	return [][]byte{jpg, pngOf(rgba), pngOf(nrgba), pngOf(gray), pngOf(pal), bomb, jpg[:len(jpg)/2]}
}

// genericConvert is the At().RGBA() conversion imgproc.FromGoImage must
// reproduce on every source type.
func genericConvert(src image.Image) *imgproc.Image {
	b := src.Bounds()
	m := imgproc.NewImage(b.Dx(), b.Dy())
	for y := 0; y < b.Dy(); y++ {
		for x := 0; x < b.Dx(); x++ {
			r, g, bl, _ := src.At(b.Min.X+x, b.Min.Y+y).RGBA()
			m.SetRGB(x, y, float32(r)/65535, float32(g)/65535, float32(bl)/65535)
		}
	}
	return m
}

// TestDecodeRawSeeds pins what each seed must do: the images decode, the
// oversized declaration and the truncated body are refused.
func TestDecodeRawSeeds(t *testing.T) {
	seeds := rawSeeds(t)
	for i, body := range seeds[:5] {
		if _, err := decodeRaw(body); err != nil {
			t.Errorf("seed %d: %v", i, err)
		}
	}
	for i, body := range seeds[5:] {
		if _, err := decodeRaw(body); err == nil {
			t.Errorf("seed %d accepted, want an error", 5+i)
		}
	}
}

// FuzzDecodeRaw holds the /detect/raw body decoder to three properties: it
// never panics, every image it accepts is within maxImageDim, and its
// pixels are the generic conversion's bit for bit.
func FuzzDecodeRaw(f *testing.F) {
	for _, s := range rawSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		img, err := decodeRaw(body)
		if err != nil {
			return
		}
		if checkDims(img.W, img.H) != nil || len(img.Pix) != 3*img.W*img.H {
			t.Fatalf("accepted a %dx%d image with %d samples", img.W, img.H, len(img.Pix))
		}
		src, _, err := image.Decode(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("decodeRaw accepted a body image.Decode refuses: %v", err)
		}
		want := genericConvert(src)
		if want.W != img.W || want.H != img.H {
			t.Fatalf("%T: %dx%d, generic %dx%d", src, img.W, img.H, want.W, want.H)
		}
		for i := range want.Pix {
			if math.Float32bits(img.Pix[i]) != math.Float32bits(want.Pix[i]) {
				t.Fatalf("%T: sample %d = %v, generic %v", src, i, img.Pix[i], want.Pix[i])
			}
		}
	})
}
