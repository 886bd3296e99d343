package serve

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"image"
	"image/color"
	"image/color/palette"
	"image/draw"
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
// from 4:2:0 to 4:2:2; then for the PNG fast path (from index 10) RGB with
// stored, fixed and dynamic deflate blocks, an IDAT in three chunks, RGBA
// with varying alpha, a flipped IDAT CRC, a flipped Adler-32, a zlib stream
// with one byte too many, an interlaced RGB, a 16-bit RGB, an RGB with
// tRNS, and 4096x4096 declared over 40 bytes of IDAT.
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

	pngAt := func(level png.CompressionLevel) []byte {
		return encode(func(b *bytes.Buffer) error { return (&png.Encoder{CompressionLevel: level}).Encode(b, rgba) })
	}
	z := idatData(pngOf(rgba))
	hdr := pngOf(rgba)[8 : 8+25]
	badCRC := pngOf(rgba)
	badCRC[len(badCRC)-12-1] ^= 1 // the IDAT CRC's last byte
	badAdler := bytes.Clone(z)
	badAdler[len(z)-1] ^= 1
	// Alpha varying down the frame too, opaque on every third diagonal.
	alpha := image.NewNRGBA(rgba.Rect)
	for i := range w * h {
		x, y := i%w, i/w
		p := rgba.Pix[4*i : 4*i+3]
		a := uint8(17 * y)
		if (x+y)%3 == 0 {
			a = 0xff
		}
		alpha.SetNRGBA(x, y, color.NRGBA{R: p[0], G: p[1], B: p[2], A: a})
	}
	var rgb16 bytes.Buffer
	wide := image.NewRGBA64(rgba.Rect)
	draw.Draw(wide, wide.Rect, rgba, image.Point{}, draw.Src)
	if err := png.Encode(&rgb16, wide); err != nil {
		t.Fatal(err)
	}
	// IHDR with the interlace byte set, over scanlines in Adam7 order.
	adam7Hdr := bytes.Clone(hdr)
	adam7Hdr[8+12] = 1
	binary.BigEndian.PutUint32(adam7Hdr[8+13:], crc32.ChecksumIEEE(adam7Hdr[4:8+13]))
	var adam7 []byte
	for _, p := range [7][4]int{{0, 0, 8, 8}, {4, 0, 8, 8}, {0, 4, 4, 8}, {2, 0, 4, 4}, {0, 2, 2, 4}, {1, 0, 2, 2}, {0, 1, 1, 2}} {
		for y := p[1]; y < h; y += p[3] {
			if p[0] < w {
				adam7 = append(adam7, 0)
			}
			for x := p[0]; x < w; x += p[2] {
				adam7 = append(adam7, rgba.Pix[rgba.PixOffset(x, y):][:3]...)
			}
		}
	}
	hugeHdr := bytes.Clone(hdr)
	binary.BigEndian.PutUint32(hugeHdr[8:], 4096)
	binary.BigEndian.PutUint32(hugeHdr[12:], 4096)
	binary.BigEndian.PutUint32(hugeHdr[8+13:], crc32.ChecksumIEEE(hugeHdr[4:8+13]))

	return [][]byte{jpg, pngOf(rgba), pngOf(nrgba), pngOf(gray), pngOf(pal), bomb, jpg[:len(jpg)/2],
		jpegBomb, grayJPG, jpg422,
		pngAt(png.NoCompression), pngAt(png.BestSpeed), pngAt(png.BestCompression),
		pngWith(hdr, idatChunk(z[:5]), idatChunk(z[5:len(z)/2]), idatChunk(z[len(z)/2:])),
		pngOf(alpha), badCRC, pngWith(hdr, idatChunk(badAdler)),
		pngWith(hdr, idatChunk(append(bytes.Clone(z), 0))),
		pngWith(adam7Hdr, idatChunk(zlibOf(t, adam7))), rgb16.Bytes(),
		pngWith(hdr, pngChunk("tRNS", []byte{0, 1, 0, 2, 0, 3}), idatChunk(z)),
		pngWith(hugeHdr, idatChunk(z[:40]))}
}

// pngChunk encodes one PNG chunk with its CRC.
func pngChunk(typ string, data []byte) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(data)))
	out = append(append(out, typ...), data...)
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out[4:]))
}

func idatChunk(z []byte) []byte { return pngChunk("IDAT", z) }

// pngWith joins the PNG signature, an encoded IHDR chunk, the chunks and an
// IEND.
func pngWith(ihdr []byte, chunks ...[]byte) []byte {
	out := append([]byte("\x89PNG\r\n\x1a\n"), ihdr...)
	for _, c := range chunks {
		out = append(out, c...)
	}
	return append(out, pngChunk("IEND", nil)...)
}

// idatData returns the zlib stream of an image/png body: its IDAT chunks'
// data, joined.
func idatData(body []byte) []byte {
	var z []byte
	for p := 8; p+12 <= len(body); {
		n := int(binary.BigEndian.Uint32(body[p:]))
		if string(body[p+4:p+8]) == "IDAT" {
			z = append(z, body[p+8:p+8+n]...)
		}
		p += 12 + n
	}
	return z
}

func zlibOf(t testing.TB, raw []byte) []byte {
	var buf bytes.Buffer
	zw := zlib.NewWriter(&buf)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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

// rawSeedPaths pins, for each PNG seed from index 10 on, what
// imgproc.DecodePNG makes of it — "accept", "decline" or "refuse" — and
// whether decodeRaw as a whole refuses it.
var rawSeedPaths = map[int]struct {
	fast   string
	refuse bool
}{
	10: {"accept", false}, 11: {"accept", false}, 12: {"accept", false}, 13: {"accept", false},
	14: {"accept", false}, 15: {"decline", true}, 16: {"decline", true},
	// image/png's reader buffers the IDAT chunk whole, so it never sees
	// the byte after the Adler-32: the body decodes, on the stdlib path.
	17: {"decline", false}, 18: {"decline", false}, 19: {"decline", false},
	20: {"decline", false}, 21: {"refuse", true},
}

// TestDecodeRawSeeds pins what each seed must do: the images decode, into
// a pooled frame poisoned with NaN where one is reused, with the generic
// conversion's pixels; the oversized declarations and the truncated body
// are refused, the JPEG one and the PNG one over 40 bytes of IDAT
// allocating no more than 4 kB. For the PNG seeds from index 10 on it also
// pins whether the PNG fast path takes, declines or refuses each.
func TestDecodeRawSeeds(t *testing.T) {
	seeds := rawSeeds(t)
	if len(seeds) != 22 {
		t.Fatalf("%d seeds, want 22", len(seeds))
	}
	for i, body := range seeds {
		refuse := i == 5 || i == 6 || i == 7 || rawSeedPaths[i].refuse
		if want := rawSeedPaths[i].fast; want != "" {
			_, err := imgproc.DecodePNG(body, func(w, h int) (*imgproc.Image, error) { return imgproc.NewImage(w, h), nil })
			got := "accept"
			if errors.Is(err, imgproc.ErrPNGDeclined) {
				got = "decline"
			} else if err != nil {
				got = "refuse"
			}
			if got != want {
				t.Errorf("seed %d: DecodePNG: %s (%v), want %s", i, got, err, want)
			}
		}
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
	for _, i := range []int{7, 21} {
		if n := allocated(func() { decodeRaw(seeds[i]) }); n > 4096 {
			t.Errorf("refusing seed %d allocated %d bytes", i, n)
		}
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

// BenchmarkDecodeRaw times /detect/raw decoding of the frames two
// workloads post: jpeg-256x256 is a 256x256 camera frame encoded at
// quality 90, as detect-compute posts it; png-128x96 a 128x96 camera frame
// as image/png encodes it, as routed-mixed posts it. The decodeRaw leg is
// the fast path into a pooled frame, handed back as the handler does; the
// stdlib leg is image.Decode plus FromGoImage.
func BenchmarkDecodeRaw(b *testing.B) {
	f, _ := pipeline.NewSimCamera(dataset.DefaultConfig(256), 1, 7).Next()
	var jpg bytes.Buffer
	if err := jpeg.Encode(&jpg, f.Image.ToNRGBA(), &jpeg.Options{Quality: 90}); err != nil {
		b.Fatal(err)
	}
	cfg := dataset.DefaultConfig(96)
	cfg.Width = 128
	f, _ = pipeline.NewSimCamera(cfg, 1, 7).Next()
	var pngBody bytes.Buffer
	if err := png.Encode(&pngBody, f.Image.ToNRGBA()); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		body []byte
	}{{"jpeg-256x256", jpg.Bytes()}, {"png-128x96", pngBody.Bytes()}} {
		b.Run(c.name, func(b *testing.B) {
			b.Run("decodeRaw", func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					img, err := decodeRaw(c.body)
					if err != nil {
						b.Fatal(err)
					}
					putFrame(img)
				}
			})
			b.Run("stdlib", func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					src, _, err := image.Decode(bytes.NewReader(c.body))
					if err != nil {
						b.Fatal(err)
					}
					imgproc.FromGoImage(src)
				}
			})
		})
	}
}
