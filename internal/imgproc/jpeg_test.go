package imgproc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"image"
	"image/jpeg"
	"math"
	"testing"

	"repro/internal/tensor"
)

// jpegCase is one body of the DecodeJPEG corpus and what the fast path
// must do with it: accept, decline, refuse outright, or either of the first
// two (then only the identity with image/jpeg is checked).
type jpegCase struct {
	body []byte
	want string // "accept", "decline", "refuse" or ""
}

// jpegFrame is a w×h frame with smooth gradients, edges and noise, so every
// quality setting leaves AC coefficients of many sizes.
func jpegFrame(w, h int, seed uint64) *image.RGBA {
	m := image.NewRGBA(image.Rect(0, 0, w, h))
	noise(m.Pix, seed)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			p := m.Pix[m.PixOffset(x, y):]
			p[0] = byte(x*255/max(w, 2)) ^ p[0]&0x1f
			p[1] = byte(y*255/max(h, 2)) ^ p[1]&0x0f
			if (x/13+y/7)%2 == 0 {
				p[2] = 255 - p[2]&0x3f
			}
			p[3] = 0xff
		}
	}
	return m
}

func encodeJPEG(t testing.TB, m image.Image, quality int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := jpeg.Encode(&buf, m, &jpeg.Options{Quality: quality}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// segment returns the offset of the first marker segment of the given kind
// in an image/jpeg-encoded body (its 0xff byte).
func segment(t testing.TB, body []byte, marker byte) int {
	t.Helper()
	for i := 2; i+4 <= len(body); {
		if body[i] != 0xff {
			t.Fatalf("no marker at %d", i)
		}
		if body[i+1] == marker {
			return i
		}
		i += 2 + int(binary.BigEndian.Uint16(body[i+2:]))
	}
	t.Fatalf("no marker %#x", marker)
	return 0
}

// resample patches an image/jpeg 4:2:0 body's SOF to luma sampling hv and
// the given size: the scan's blocks are then read in another arrangement,
// a valid stream of other coefficients.
func resample(t testing.TB, body []byte, hv byte, w, h int) []byte {
	out := bytes.Clone(body)
	sof := segment(t, out, 0xc0)
	binary.BigEndian.PutUint16(out[sof+5:], uint16(h))
	binary.BigEndian.PutUint16(out[sof+7:], uint16(w))
	out[sof+11] = hv
	return out
}

// jpegCorpus is the identity test's corpus: image/jpeg's own output at six
// qualities and six sizes, gray, patched samplings, a 16-bit DQT, and the
// variants the fast path must leave alone.
func jpegCorpus(t testing.TB) map[string]jpegCase {
	t.Helper()
	cases := map[string]jpegCase{}
	frame := jpegFrame(256, 256, 1)
	for _, q := range []int{1, 25, 50, 75, 90, 100} {
		cases[fmt.Sprintf("q%d-256x256", q)] = jpegCase{encodeJPEG(t, frame, q), "accept"}
	}
	for _, sz := range [][2]int{{1, 1}, {8, 8}, {17, 9}, {250, 250}, {255, 257}} {
		m := jpegFrame(sz[0], sz[1], uint64(sz[0]*1000+sz[1]))
		cases[fmt.Sprintf("q90-%dx%d", sz[0], sz[1])] = jpegCase{encodeJPEG(t, m, 90), "accept"}
	}
	gray := image.NewGray(image.Rect(0, 0, 61, 35))
	for i := range gray.Pix {
		gray.Pix[i] = frame.Pix[4*i]
	}
	cases["gray-61x35"] = jpegCase{encodeJPEG(t, gray, 90), "accept"}

	base := encodeJPEG(t, frame, 90) // 4:2:0, 1536 blocks
	cases["patched-444"] = jpegCase{resample(t, base, 0x11, 128, 128), "accept"}
	cases["patched-422"] = jpegCase{resample(t, base, 0x21, 64, 64), "accept"}
	cases["patched-440"] = jpegCase{resample(t, base, 0x12, 48, 48), "accept"}
	// The scan lists Cr, Y, Cb: blocks are read in that order within each
	// MCU, each with its component's tables.
	order := resample(t, base, 0x22, 48, 48)
	sos := segment(t, order, 0xda)
	copy(order[sos+5:sos+11], []byte{3, 0x11, 1, 0x00, 2, 0x11})
	cases["scan-order"] = jpegCase{order, "accept"}
	cases["patched-gray"] = jpegCase{resample(t, encodeJPEG(t, gray, 90), 0x22, 40, 30), "accept"}

	// Both quantisation tables rewritten as 16-bit, scaled up so the DC
	// products wrap int32.
	dqt := segment(t, base, 0xdb)
	n := int(binary.BigEndian.Uint16(base[dqt+2:]))
	wide := []byte{0xff, 0xdb, 0, 0}
	for p := dqt + 4; p < dqt+2+n; p += 65 {
		wide = append(wide, 0x10|base[p])
		for _, v := range base[p+1 : p+65] {
			wide = binary.BigEndian.AppendUint16(wide, uint16(min(int(v)*311, 65535)))
		}
	}
	binary.BigEndian.PutUint16(wide[2:], uint16(len(wide)-2))
	cases["dqt16"] = jpegCase{append(append(bytes.Clone(base[:dqt]), wide...), base[dqt+2+n:]...), "accept"}

	adobe := []byte{0xff, 0xee, 0, 14, 'A', 'd', 'o', 'b', 'e', 0, 100, 0, 0, 0, 0, 1}
	cases["app14"] = jpegCase{append(append([]byte{0xff, 0xd8}, adobe...), base[2:]...), "decline"}
	rgb := bytes.Clone(base)
	sof, sos := segment(t, rgb, 0xc0), segment(t, rgb, 0xda)
	for i, id := range []byte("RGB") {
		rgb[sof+10+3*i], rgb[sos+5+2*i] = id, id
	}
	cases["rgb-ids"] = jpegCase{rgb, "decline"}
	scan := base[segment(t, base, 0xda) : len(base)-2]
	cases["second-scan"] = jpegCase{append(append(bytes.Clone(base[:len(base)-2]), scan...), 0xff, 0xd9), "decline"}
	cases["cut-mid-scan"] = jpegCase{base[:len(base)/2], "decline"}
	cases["no-eoi"] = jpegCase{base[:len(base)-2], "decline"}
	huge := resample(t, base, 0x22, 2048, 2048)
	cases["too-short"] = jpegCase{huge[:segment(t, huge, 0xda)+14+64], "refuse"}
	return cases
}

// TestDecodeJPEGMatchesStdlib holds DecodeJPEG to image/jpeg under every
// kernel family: every body it accepts, image/jpeg accepts too, and the
// floats are FromGoImage's of image/jpeg's decode, bit for bit, with every
// sample of the supplied image overwritten; every body it refuses outright,
// image/jpeg refuses too. The corpus pins which bodies it must accept,
// which it must leave to image/jpeg and which it must refuse.
func TestDecodeJPEGMatchesStdlib(t *testing.T) {
	cases := jpegCorpus(t)
	forEachKernel(t, func(t *testing.T) {
		for name, c := range cases {
			got, err := DecodeJPEG(c.body, func(w, h int) (*Image, error) {
				m := NewImage(w, h)
				for i := range m.Pix {
					m.Pix[i] = float32(math.NaN())
				}
				return m, nil
			})
			declined := errors.Is(err, ErrJPEGDeclined)
			switch {
			case c.want == "accept" && err != nil:
				t.Errorf("%s: not accepted: %v", name, err)
			case c.want == "decline" && !declined:
				t.Errorf("%s: %v, want it left to image/jpeg", name, err)
			case c.want == "refuse" && (err == nil || declined):
				t.Errorf("%s: %v, want it refused outright", name, err)
			}
			src, stdErr := jpeg.Decode(bytes.NewReader(c.body))
			if err != nil && !declined && stdErr == nil {
				t.Errorf("%s: refused (%v) a body image/jpeg decodes", name, err)
			}
			if err != nil {
				continue
			}
			if stdErr != nil {
				t.Errorf("%s: accepted a body image/jpeg refuses: %v", name, stdErr)
				continue
			}
			want := FromGoImage(src)
			if got.W != want.W || got.H != want.H {
				t.Errorf("%s: %dx%d, image/jpeg %dx%d", name, got.W, got.H, want.W, want.H)
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

// TestIDCTKernelMatchesGo holds every family's idct8x8 kernel to idct and
// storeBlock, byte for byte, on random blocks (small and full-range int32
// coefficients, where the products wrap), blocks whose rows have no AC
// coefficient (the row pass's shortcut, which differs from its formula
// where s[0]<<11 wraps) and mixtures; the kernel must leave the block and
// every byte outside the 8×8 destination alone. It also holds fillBlock,
// the decoder's DC-only path, to idct on blocks with only s[0] set.
func TestIDCTKernelMatchesGo(t *testing.T) {
	rng := tensor.NewRNG(49)
	var blocks [][64]int32
	for i := 0; i < 4000; i++ {
		var b [64]int32
		for k := range b {
			switch i % 4 {
			case 0: // dequantised coefficients of a plausible range
				b[k] = int32(rng.Intn(4096)) - 2048
			case 1: // anything, wrapping everywhere
				b[k] = int32(rng.Uint64())
			case 2: // sparse: most AC coefficients zero
				if rng.Intn(8) == 0 || k == 0 {
					b[k] = int32(rng.Intn(1<<20)) - 1<<19
				}
			case 3: // rows with s[0] only, near the wrap of s[0]<<11
				if k%8 == 0 {
					b[k] = int32(rng.Uint64()) >> uint(rng.Intn(12))
				} else if rng.Intn(3) == 0 && k/8%2 == 0 {
					b[k] = int32(rng.Intn(512)) - 256
				}
			}
		}
		blocks = append(blocks, b)
	}
	const stride = 11
	forEachKernel(t, func(t *testing.T) {
		kern := tensor.IDCTKernel()
		if kern == nil {
			t.Skip("no idct8x8 kernel in this family")
		}
		want, got := make([]byte, 7*stride+9), make([]byte, 7*stride+9)
		for i, b := range blocks {
			for j := range want {
				want[j], got[j] = byte(j), byte(j)
			}
			in := b
			kern(&in, got, stride)
			if in != b {
				t.Fatalf("block %d: the kernel changed its input", i)
			}
			idct(&b)
			storeBlock(&b, want, stride)
			if !bytes.Equal(got, want) {
				t.Fatalf("block %d (%v):\n got %v\nwant %v", i, blocks[i], got, want)
			}
		}
	})
	for i := 0; i < 2000; i++ {
		var b [64]int32
		b[0] = int32(rng.Uint64()) >> uint(rng.Intn(31))
		dc := b[0]
		want, got := make([]byte, 7*stride+8), make([]byte, 7*stride+8)
		idct(&b)
		storeBlock(&b, want, stride)
		fillBlock(got, stride, dc)
		for y := 0; y < 8; y++ {
			if !bytes.Equal(got[y*stride:y*stride+8], want[y*stride:y*stride+8]) {
				t.Fatalf("dc %d: fillBlock row %d = %v, idct %v", dc, y, got[y*stride:y*stride+8], want[y*stride:y*stride+8])
			}
		}
	}
}
