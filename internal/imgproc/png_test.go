package imgproc

import (
	"bytes"
	"compress/flate"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/adler32"
	"hash/crc32"
	"image"
	"image/color"
	"image/color/palette"
	"image/png"
	"io"
	"math"
	"testing"
)

// pngCase is one body of the DecodePNG corpus and what the fast path must
// do with it: accept, decline or refuse outright.
type pngCase struct {
	body []byte
	want string // "accept", "decline" or "refuse"
}

// pngFrame is a w×h frame with gradients, edges and noise, so every filter
// type wins some rows; with alpha its alpha channel varies too.
func pngFrame(w, h int, seed uint64, alpha bool) *image.NRGBA {
	m := image.NewNRGBA(image.Rect(0, 0, w, h))
	noise(m.Pix, seed)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			p := m.Pix[m.PixOffset(x, y):]
			p[0] = byte(x*255/max(w, 2)) ^ p[0]&0x07
			p[1] = byte(y*255/max(h, 2)) ^ p[1]&0x03
			if (x/13+y/7)%2 == 0 {
				p[2] = 255 - p[2]&0x3f
			}
			if !alpha {
				p[3] = 0xff
			} else if (x+y)%5 == 0 {
				p[3] = 0xff
			}
		}
	}
	return m
}

func encodePNG(t testing.TB, m image.Image, level png.CompressionLevel) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := (&png.Encoder{CompressionLevel: level}).Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// chunk encodes one PNG chunk with its CRC.
func chunk(typ string, data []byte) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(data)))
	out = append(append(out, typ...), data...)
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out[4:]))
}

func ihdr(w, h int, depth, ct, interlace byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(w))
	b = binary.BigEndian.AppendUint32(b, uint32(h))
	return chunk("IHDR", append(b, depth, ct, 0, 0, interlace))
}

// pngBody joins the signature, the chunks and an IEND.
func pngBody(chunks ...[]byte) []byte {
	out := []byte(pngSignature)
	for _, c := range chunks {
		out = append(out, c...)
	}
	return append(out, chunk("IEND", nil)...)
}

// idats splits a zlib stream into IDAT chunks at the given offsets.
func idats(z []byte, cuts ...int) []byte {
	var out []byte
	prev := 0
	for _, c := range append(cuts, len(z)) {
		out = append(out, chunk("IDAT", z[prev:c])...)
		prev = c
	}
	return out
}

// scanlines filters the rows of an 8-bit image of bpp bytes a pixel, row y
// with filter filt(y).
func scanlines(pix []byte, w, h, bpp int, filt func(y int) byte) []byte {
	stride := w * bpp
	out := make([]byte, 0, h*(stride+1))
	prev := make([]byte, stride)
	for y := 0; y < h; y++ {
		cur := pix[y*stride : (y+1)*stride]
		ft := filt(y)
		out = append(out, ft)
		for i, v := range cur {
			var a, b, c int
			if i >= bpp {
				a, c = int(cur[i-bpp]), int(prev[i-bpp])
			}
			b = int(prev[i])
			var p int
			switch ft {
			case 1:
				p = a
			case 2:
				p = b
			case 3:
				p = (a + b) / 2
			case 4:
				pa, pb, pc := abs(b-c), abs(a-c), abs(a+b-2*c)
				switch {
				case pa <= pb && pa <= pc:
					p = a
				case pb <= pc:
					p = b
				default:
					p = c
				}
			}
			out = append(out, v-byte(p))
		}
		prev = cur
	}
	return out
}

func zlibOf(t testing.TB, raw []byte, level int) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := zlib.NewWriterLevel(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	zw.Write(raw)
	zw.Close()
	return buf.Bytes()
}

// bitWriter packs a deflate stream least significant bit first.
type bitWriter struct {
	out []byte
	n   uint
}

func (b *bitWriter) bits(v uint32, n uint) {
	for i := uint(0); i < n; i++ {
		if b.n%8 == 0 {
			b.out = append(b.out, 0)
		}
		b.out[len(b.out)-1] |= byte(v>>i&1) << (b.n % 8)
		b.n++
	}
}

// code writes the canonical Huffman code of symbol s under lens, most
// significant bit first.
func (b *bitWriter) code(lens []uint8, s int) {
	var count, next [16]int
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	c := 0
	for l := 1; l < 16; l++ {
		c = (c + count[l-1]) << 1
		next[l] = c
	}
	for i := 0; i < s; i++ {
		if lens[i] == lens[s] {
			next[lens[s]]++
		}
	}
	for i := int(lens[s]) - 1; i >= 0; i-- {
		b.bits(uint32(next[lens[s]]>>i&1), 1)
	}
}

// handmadeZlib writes raw as one dynamic block of literals only: literals
// 0–254 take 8-bit codes, 255 and the end of block 9-bit ones, and the
// distance code is the single one-bit code compress/flate tolerates. hlit
// overrides the HLIT field; drop255 leaves literal 255 without a code, an
// incomplete code compress/flate refuses.
func handmadeZlib(raw []byte, hlit uint32, drop255 bool) []byte {
	lens := make([]uint8, 257+1)
	for s := range 255 {
		lens[s] = 8
	}
	lens[255], lens[256] = 9, 9
	if drop255 {
		lens[255] = 0
	}
	lens[257] = 1 // the one distance code
	clens := make([]uint8, 19)
	clens[0], clens[1], clens[8], clens[9] = 2, 2, 2, 2
	b := &bitWriter{}
	b.bits(1, 1) // final
	b.bits(2, 2) // dynamic
	b.bits(hlit, 5)
	b.bits(0, 5)  // one distance code
	b.bits(15, 4) // all 19 code-length lengths
	for _, s := range codeOrder {
		b.bits(uint32(clens[s]), 3)
	}
	for _, l := range lens {
		b.code(clens, int(l))
	}
	for _, v := range raw {
		b.code(lens[:257], int(v))
	}
	b.code(lens[:257], 256)
	a := make([]byte, 4)
	binary.BigEndian.PutUint32(a, adler32.Checksum(raw))
	return append(append([]byte{0x78, 0x01}, b.out...), a...)
}

// pngCorpus is the identity test's corpus: image/png's own output at every
// compression level, at sizes from 1×1 to 255×257, gray, RGB and RGBA with
// varying alpha; hand-built bodies with each filter type on every row, an
// IDAT in three chunks, ancillary and trailing chunks and a hand-written
// dynamic block; and the variants the fast path must leave alone or refuse.
func pngCorpus(t testing.TB) map[string]pngCase {
	t.Helper()
	cases := map[string]pngCase{}
	for _, sz := range [][2]int{{1, 1}, {2, 3}, {8, 8}, {17, 9}, {128, 96}, {250, 250}, {255, 257}} {
		m := pngFrame(sz[0], sz[1], uint64(sz[0]*1000+sz[1]), false)
		cases[fmt.Sprintf("rgb-%dx%d", sz[0], sz[1])] = pngCase{encodePNG(t, m, png.DefaultCompression), "accept"}
	}
	frame := pngFrame(128, 96, 7, false)
	for _, l := range []png.CompressionLevel{png.NoCompression, png.BestSpeed, png.BestCompression} {
		cases[fmt.Sprintf("rgb-level%d", l)] = pngCase{encodePNG(t, frame, l), "accept"}
	}
	gray := image.NewGray(image.Rect(0, 0, 61, 35))
	for i := range gray.Pix {
		gray.Pix[i] = frame.Pix[4*i+1]
	}
	cases["gray-61x35"] = pngCase{encodePNG(t, gray, png.DefaultCompression), "accept"}
	for _, sz := range [][2]int{{1, 1}, {33, 17}, {128, 96}} {
		m := pngFrame(sz[0], sz[1], 3, true)
		cases[fmt.Sprintf("rgba-%dx%d", sz[0], sz[1])] = pngCase{encodePNG(t, m, png.DefaultCompression), "accept"}
	}

	// Hand-built bodies over the 37×23 corner of frame.
	const w, h = 37, 23
	rgb, rgba, g8 := make([]byte, 0, 3*w*h), make([]byte, 0, 4*w*h), make([]byte, 0, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			p := frame.Pix[frame.PixOffset(x, y):]
			rgb = append(rgb, p[:3]...)
			rgba = append(rgba, p[0], p[1], p[2], byte(x*y))
			g8 = append(g8, p[1])
		}
	}
	shapes := []struct {
		name    string
		pix     []byte
		bpp     int
		ct      byte
		depth   byte
		inScope bool
	}{
		{"gray", g8, 1, 0, 8, true}, {"rgb", rgb, 3, 2, 8, true}, {"rgba", rgba, 4, 6, 8, true},
		{"gray-alpha", rgba[:2*w*h], 2, 4, 8, false},
	}
	for _, s := range shapes {
		for ft := byte(0); ft <= 5; ft++ {
			filt := func(y int) byte { return ft }
			name := fmt.Sprintf("filter%d-%s", ft, s.name)
			if ft == 5 {
				filt = func(y int) byte { return byte(y % 5) }
				name = "filters-mixed-" + s.name
			}
			z := zlibOf(t, scanlines(s.pix, w, h, s.bpp, filt), zlib.DefaultCompression)
			want := "decline"
			if s.inScope {
				want = "accept"
			}
			cases[name] = pngCase{pngBody(ihdr(w, h, s.depth, s.ct, 0), idats(z)), want}
		}
	}
	raw := scanlines(rgb, w, h, 3, func(y int) byte { return byte(y % 5) })
	z := zlibOf(t, raw, zlib.DefaultCompression)
	hdr := ihdr(w, h, 8, 2, 0)
	cases["huffman-only"] = pngCase{pngBody(hdr, idats(zlibOf(t, raw, zlib.HuffmanOnly))), "accept"}
	cases["idat-in-three"] = pngCase{pngBody(hdr, idats(z, 1, len(z)/2)), "accept"}
	cases["idat-zero-length"] = pngCase{pngBody(hdr, idats(z, len(z)/3, len(z)/3, len(z)), chunk("IDAT", []byte("tail"))), "accept"}
	cases["ancillary"] = pngCase{pngBody(hdr, chunk("gAMA", []byte{0, 0, 0xb1, 0x8f}), idats(z), chunk("tEXt", []byte("a\x00b"))), "accept"}
	cases["handmade-dynamic"] = pngCase{pngBody(hdr, idats(handmadeZlib(raw, 0, false))), "accept"}

	// Out of scope: image/png decodes these another way.
	pal := image.NewPaletted(image.Rect(0, 0, 19, 7), palette.WebSafe)
	gray16 := image.NewGray16(image.Rect(0, 0, 19, 7))
	rgb16 := image.NewRGBA64(image.Rect(0, 0, 19, 7))
	for i := range 19 * 7 {
		pal.Pix[i] = byte(i)
		gray16.Pix[2*i] = byte(i)
		rgb16.Set(i%19, i/19, color.RGBA64{uint16(i * 300), 0, 0xffff, 0xffff})
	}
	cases["palette"] = pngCase{encodePNG(t, pal, png.DefaultCompression), "decline"}
	cases["gray16"] = pngCase{encodePNG(t, gray16, png.DefaultCompression), "decline"}
	cases["rgb16"] = pngCase{encodePNG(t, rgb16, png.DefaultCompression), "decline"}
	packed := scanlines(g8[:((w+1)/2)*h], (w+1)/2, h, 1, func(int) byte { return 0 })
	cases["gray4"] = pngCase{pngBody(ihdr(w, h, 4, 0, 0), idats(zlibOf(t, packed, 6))), "decline"}
	cases["adam7"] = pngCase{pngBody(ihdr(w, h, 8, 2, 1), idats(z)), "decline"}
	cases["trns"] = pngCase{pngBody(hdr, chunk("tRNS", []byte{0, 1, 0, 2, 0, 3}), idats(z)), "decline"}
	cases["plte"] = pngCase{pngBody(hdr, chunk("PLTE", []byte{1, 2, 3}), idats(z)), "decline"}
	cases["chunk-before-ihdr"] = pngCase{append([]byte(pngSignature), append(chunk("abCd", nil), pngBody(hdr, idats(z))[8:]...)...), "decline"}

	// Bodies image/png refuses, or decodes without the exact bookkeeping.
	good := pngBody(hdr, idats(z))
	badCRC := bytes.Clone(good)
	badCRC[len(good)-12-1] ^= 1 // the last byte of the IDAT CRC
	cases["bad-crc"] = pngCase{badCRC, "decline"}
	badAdler := bytes.Clone(z)
	badAdler[len(z)-1] ^= 1
	cases["bad-adler"] = pngCase{pngBody(hdr, idats(badAdler)), "decline"}
	cases["byte-after-stream"] = pngCase{pngBody(hdr, idats(append(bytes.Clone(z), 0))), "decline"}
	fdict := append([]byte{0x78, 0xbb, 0, 0, 0, 1}, z[2:]...)
	cases["fdict"] = pngCase{pngBody(hdr, idats(fdict)), "decline"}
	cases["hlit-287"] = pngCase{pngBody(hdr, idats(handmadeZlib(raw, 30, false))), "decline"}
	noFF := bytes.Clone(raw)
	for i := range noFF {
		noFF[i] = min(noFF[i], 254)
	}
	cases["incomplete-code"] = pngCase{pngBody(hdr, idats(handmadeZlib(noFF, 0, true))), "decline"}
	cases["cut"] = pngCase{good[:len(good)/2], "decline"}
	cases["no-iend"] = pngCase{good[:len(good)-12], "decline"}
	badFilter := bytes.Clone(raw)
	badFilter[(1+3*w)*5] = 5
	cases["bad-filter"] = pngCase{pngBody(hdr, idats(zlibOf(t, badFilter, 6))), "decline"}
	cases["row-short"] = pngCase{pngBody(hdr, idats(zlibOf(t, raw[:len(raw)-1], 6))), "decline"}
	cases["row-extra"] = pngCase{pngBody(hdr, idats(zlibOf(t, append(bytes.Clone(raw), 0), 6))), "decline"}
	cases["idat-gap"] = pngCase{pngBody(hdr, chunk("IDAT", z[:10]), chunk("tEXt", []byte("a\x00b")), chunk("IDAT", z[10:])), "decline"}

	// 4096×4096 RGB from 40 bytes of IDAT: at most 41,280 bytes inflate
	// from them, far short of its 50 MB of scanlines.
	cases["too-short"] = pngCase{pngBody(ihdr(4096, 4096, 8, 2, 0), chunk("IDAT", z[:40])), "refuse"}
	return cases
}

// TestDecodePNGMatchesStdlib holds DecodePNG to image/png: every body it
// accepts, image/png accepts too, and the floats are FromGoImage's of
// image/png's decode, bit for bit, with every sample of the supplied image
// overwritten; every body it refuses outright, image/png refuses too, and
// without a frame. The corpus pins which bodies it must accept, which it
// must leave to image/png and which it must refuse.
func TestDecodePNGMatchesStdlib(t *testing.T) {
	for name, c := range pngCorpus(t) {
		called := false
		got, err := DecodePNG(c.body, func(w, h int) (*Image, error) {
			called = true
			m := NewImage(w, h)
			for i := range m.Pix {
				m.Pix[i] = float32(math.NaN())
			}
			return m, nil
		})
		declined := errors.Is(err, ErrPNGDeclined)
		switch {
		case c.want == "accept" && err != nil:
			t.Errorf("%s: not accepted: %v", name, err)
		case c.want == "decline" && !declined:
			t.Errorf("%s: %v, want it left to image/png", name, err)
		case c.want == "refuse" && (err == nil || declined || called):
			t.Errorf("%s: %v (newImage called: %v), want it refused before newImage", name, err, called)
		}
		src, stdErr := png.Decode(bytes.NewReader(c.body))
		if err != nil && !declined && stdErr == nil {
			t.Errorf("%s: refused (%v) a body image/png decodes", name, err)
		}
		if err != nil {
			continue
		}
		if stdErr != nil {
			t.Errorf("%s: accepted a body image/png refuses: %v", name, stdErr)
			continue
		}
		if !samePNGPixels(got, FromGoImage(src)) {
			t.Errorf("%s (%T): pixels differ from image/png + FromGoImage", name, src)
		}
	}
}

func samePNGPixels(a, b *Image) bool {
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

// FuzzInflateMatchesFlate holds inflate to compress/flate on raw deflate
// streams: a stream flate decodes inflates to the same bytes and ends at
// the same input byte; one flate refuses is refused.
func FuzzInflateMatchesFlate(f *testing.F) {
	raw := scanlines(pngFrame(29, 11, 5, true).Pix, 29, 11, 4, func(y int) byte { return byte(y % 5) })
	for _, level := range []int{zlib.NoCompression, zlib.BestSpeed, zlib.DefaultCompression, zlib.BestCompression, zlib.HuffmanOnly} {
		z := zlibOf(f, raw, level)
		f.Add(z[2 : len(z)-4])
	}
	z := handmadeZlib(raw[:40], 0, false)
	f.Add(z[2 : len(z)-4])
	var fl inflater
	f.Fuzz(func(t *testing.T, in []byte) {
		r := bytes.NewReader(in)
		want, err := io.ReadAll(io.LimitReader(flate.NewReader(r), 1<<22))
		if len(want) == 1<<22 {
			return
		}
		out := make([]byte, len(want))
		n, ok := fl.inflate(in, out)
		if err != nil {
			if ok {
				t.Fatalf("inflated a stream compress/flate refuses (%v)", err)
			}
			return
		}
		if !ok {
			t.Fatalf("refused a stream compress/flate decodes to %d bytes", len(want))
		}
		if used := len(in) - r.Len(); n != used {
			t.Fatalf("stream ends at byte %d, compress/flate's at %d", n, used)
		}
		if !bytes.Equal(out, want) {
			t.Fatal("inflated bytes differ from compress/flate's")
		}
	})
}

// FuzzDecodePNGMatchesStdlib is TestDecodePNGMatchesStdlib's property on
// mutated bodies whose chunk CRCs are fixed up first, so that mutations
// reach the zlib stream and the chunk order rather than stopping at a
// checksum.
func FuzzDecodePNGMatchesStdlib(f *testing.F) {
	for _, c := range pngCorpus(f) {
		if len(c.body) < 4096 {
			f.Add(c.body)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for pos := len(pngSignature); ; {
			_, _, next, ok := pngChunk(body, pos)
			if !ok {
				break
			}
			binary.BigEndian.PutUint32(body[next-4:], crc32.ChecksumIEEE(body[pos+4:next-4]))
			pos = next
		}
		got, err := DecodePNG(body, func(w, h int) (*Image, error) {
			if w > 1024 || h > 1024 {
				return nil, errors.New("too large for the fuzzer")
			}
			return NewImage(w, h), nil
		})
		if err != nil {
			// Only a frame small enough to decode cheaply is checked.
			cfg, cfgErr := png.DecodeConfig(bytes.NewReader(body))
			if !errors.Is(err, ErrPNGDeclined) && cfgErr == nil && cfg.Width <= 1024 && cfg.Height <= 1024 {
				if _, stdErr := png.Decode(bytes.NewReader(body)); stdErr == nil {
					t.Fatalf("refused (%v) a body image/png decodes", err)
				}
			}
			return
		}
		src, stdErr := png.Decode(bytes.NewReader(body))
		if stdErr != nil {
			t.Fatalf("accepted a body image/png refuses: %v", stdErr)
		}
		if !samePNGPixels(got, FromGoImage(src)) {
			t.Fatalf("%T: pixels differ from image/png + FromGoImage", src)
		}
	})
}
