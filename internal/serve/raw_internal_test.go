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

	"repro/internal/dataset"
	"repro/internal/imgproc"
	"repro/internal/pipeline"
)

// rawSeeds are the /detect/raw bodies FuzzDecodeRaw starts from: each
// decoder output type the conversion distinguishes, a declared size far past
// maxImageDim, and a body cut short; then for the JPEG fast path a baseline
// SOF declaring 60000x60000, a gray JPEG and a JPEG whose SOF is patched
// from 4:2:0 to 4:2:2.
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

	// The SOF is the third segment image/jpeg writes, after SOI and DQT:
	// its height, width and luma sampling follow the length and precision.
	sof := 2 + 2 + int(binary.BigEndian.Uint16(jpg[4:]))
	jpegBomb := bytes.Clone(jpg)
	binary.BigEndian.PutUint16(jpegBomb[sof+5:], 60000)
	binary.BigEndian.PutUint16(jpegBomb[sof+7:], 60000)
	grayJPG := encode(func(b *bytes.Buffer) error { return jpeg.Encode(b, gray, nil) })
	// The one 16x16 MCU of six blocks read as one 16x8 MCU of four.
	jpg422 := bytes.Clone(jpg)
	binary.BigEndian.PutUint16(jpg422[sof+5:], 8)
	jpg422[sof+11] = 0x21

	return [][]byte{jpg, pngOf(rgba), pngOf(nrgba), pngOf(gray), pngOf(pal), bomb, jpg[:len(jpg)/2],
		jpegBomb, grayJPG, jpg422}
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

// TestDecodeRawSeeds pins what each seed must do: the images decode, into
// a pooled frame poisoned with NaN where one is reused, with the generic
// conversion's pixels; the oversized declarations and the truncated body
// are refused, the JPEG one allocating no more than 4 kB.
func TestDecodeRawSeeds(t *testing.T) {
	seeds := rawSeeds(t)
	for i, body := range seeds {
		refuse := i == 5 || i == 6 || i == 7
		poisoned := imgproc.NewImage(32, 32)
		for j := range poisoned.Pix {
			poisoned.Pix[j] = float32(math.NaN())
		}
		putFrame(poisoned)
		img, err := decodeRaw(body)
		if refuse {
			if err == nil {
				t.Errorf("seed %d accepted, want an error", i)
			}
			continue
		}
		if err != nil {
			t.Errorf("seed %d: %v", i, err)
			continue
		}
		src, _, err := image.Decode(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if want := genericConvert(src); !samePixels(img, want) {
			t.Errorf("seed %d (%T): pixels differ from the generic conversion", i, src)
		}
	}
	if n := allocated(func() { decodeRaw(seeds[7]) }); n > 4096 {
		t.Errorf("refusing a JPEG declaring 60000x60000 allocated %d bytes", n)
	}
}

// samePixels reports whether two images have the same size and samples,
// compared by bits.
func samePixels(a, b *imgproc.Image) bool {
	if a.W != b.W || a.H != b.H || len(a.Pix) != len(b.Pix) {
		return false
	}
	for i := range a.Pix {
		if math.Float32bits(a.Pix[i]) != math.Float32bits(b.Pix[i]) {
			return false
		}
	}
	return true
}

// FuzzDecodeRaw holds the /detect/raw body decoder to four properties: it
// never panics, every image it accepts is within maxImageDim, its pixels are
// the generic conversion's bit for bit, and it refuses only what
// image.DecodeConfig, the dimension check or image.Decode refuses. Accepted
// frames go back to the pool, so the JPEG fast path keeps decoding into
// frames that hold an earlier body's pixels.
func FuzzDecodeRaw(f *testing.F) {
	for _, s := range rawSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		img, err := decodeRaw(body)
		if err != nil {
			cfg, _, cerr := image.DecodeConfig(bytes.NewReader(body))
			if cerr == nil && checkDims(cfg.Width, cfg.Height) == nil {
				if _, _, derr := image.Decode(bytes.NewReader(body)); derr == nil {
					t.Fatalf("decodeRaw refused a body the standard library decodes: %v", err)
				}
			}
			return
		}
		defer putFrame(img)
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

// BenchmarkDecodeRaw times /detect/raw decoding of a 256x256 camera frame
// encoded at quality 90, as the detect-compute workload posts it: the
// decodeRaw leg is the JPEG fast path into a pooled frame, handed back as
// the handler does; the stdlib leg is image.Decode plus FromGoImage.
func BenchmarkDecodeRaw(b *testing.B) {
	f, _ := pipeline.NewSimCamera(dataset.DefaultConfig(256), 1, 7).Next()
	var body bytes.Buffer
	if err := jpeg.Encode(&body, f.Image.ToNRGBA(), &jpeg.Options{Quality: 90}); err != nil {
		b.Fatal(err)
	}
	b.Run("jpeg-256x256", func(b *testing.B) {
		b.Run("decodeRaw", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				img, err := decodeRaw(body.Bytes())
				if err != nil {
					b.Fatal(err)
				}
				putFrame(img)
			}
		})
		b.Run("stdlib", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				src, _, err := image.Decode(bytes.NewReader(body.Bytes()))
				if err != nil {
					b.Fatal(err)
				}
				imgproc.FromGoImage(src)
			}
		})
	})
}
