package imgproc

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"os"

	"repro/internal/tensor"
)

// ToNRGBA converts the image to an 8-bit standard-library image.
func (m *Image) ToNRGBA() *image.NRGBA {
	out := image.NewNRGBA(image.Rect(0, 0, m.W, m.H))
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			r, g, b := m.RGB(x, y)
			out.SetNRGBA(x, y, color.NRGBA{
				R: to8(r), G: to8(g), B: to8(b), A: 255,
			})
		}
	}
	return out
}

func to8(v float32) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 1 {
		return 255
	}
	return uint8(v*255 + 0.5)
}

// FromGoImage converts any standard-library image to a float32 Image: each
// sample is float32(v)/65535 of the 16-bit channel At(x, y).RGBA() reports.
// The types the JPEG and PNG decoders return for colour frames,
// *image.YCbCr and *image.RGBA, are read through their concrete pixel types
// instead of At, which boxes every pixel into a color.Color; the result is
// bit-identical either way. On a kernel family with a YCbCr row kernel
// (tensor.YCbCrRowKernel: avx2), rows of 4:4:4, 4:4:0, 4:2:2 and 4:2:0
// frames convert eight pixels a step; the Go loop takes a row's last fewer
// than eight pixels, the first pixel of a row whose 2:1 chroma pairs start
// mid-pair, and every row on the portable family.
func FromGoImage(src image.Image) *Image {
	b := src.Bounds()
	m := NewImage(b.Dx(), b.Dy())
	FromGoImageInto(m, src)
	return m
}

// FromGoImageInto is FromGoImage into m, which must be src's size: every
// sample of m is overwritten.
func FromGoImageInto(m *Image, src image.Image) {
	b := src.Bounds()
	plane := m.W * m.H
	r, g, bl := m.Pix[:plane], m.Pix[plane:2*plane], m.Pix[2*plane:3*plane]
	switch s := src.(type) {
	case *image.YCbCr:
		// COffset divides by the subsample ratio; a shift is the same division
		// for non-negative coordinates only, so a negative origin (or an
		// unknown ratio) keeps the per-pixel YCbCrAt path.
		hs, vs, ok := chromaShifts(s.SubsampleRatio)
		if ok && b.Min.X >= 0 && b.Min.Y >= 0 {
			var vec func(y, cb, cr []byte, hs uint, r, g, b []float32) int
			x0 := 0 // the kernel's first pixel: with 2:1 chroma, the start of a pair
			if hs <= 1 {
				vec = tensor.YCbCrRowKernel()
				x0 = b.Min.X & int(hs)
			}
			for y := b.Min.Y; y < b.Max.Y; y++ {
				i := (y - b.Min.Y) * m.W
				ycbcrRow(vec, s.Y[(y-b.Min.Y)*s.YStride:][:m.W], s.Cb, s.Cr, (y>>vs-b.Min.Y>>vs)*s.CStride-b.Min.X>>hs,
					b.Min.X, hs, x0, r[i:][:m.W], g[i:][:m.W], bl[i:][:m.W])
			}
			break
		}
		for y, i := b.Min.Y, 0; y < b.Max.Y; y++ {
			for x := b.Min.X; x < b.Max.X; x, i = x+1, i+1 {
				cr, cg, cb, _ := s.YCbCrAt(x, y).RGBA()
				r[i], g[i], bl[i] = float32(cr)/65535, float32(cg)/65535, float32(cb)/65535
			}
		}
	case *image.RGBA:
		for y, i := b.Min.Y, 0; y < b.Max.Y; y++ {
			row := s.Pix[s.PixOffset(b.Min.X, y):]
			for x := 0; x < m.W; x, i = x+1, i+1 {
				// color.RGBA.RGBA widens each stored byte to v*0x101,
				// whatever the alpha.
				p := row[4*x : 4*x+3]
				r[i], g[i], bl[i] = unit8[p[0]], unit8[p[1]], unit8[p[2]]
			}
		}
	default:
		for y, i := b.Min.Y, 0; y < b.Max.Y; y++ {
			for x := b.Min.X; x < b.Max.X; x, i = x+1, i+1 {
				cr, cg, cb, _ := src.At(x, y).RGBA()
				r[i], g[i], bl[i] = float32(cr)/65535, float32(cg)/65535, float32(cb)/65535
			}
		}
	}
}

// ycbcrRow converts one row of pixels into rr, gg and bb: yRow holds the
// row's luma from the image's left edge minX, and pixel x's chroma is at
// cBase + (minX+x)>>hs in cb and cr. vec, the row kernel (nil on a family
// without one), takes whole blocks of eight pixels from x0 on; ycbcrPixels
// takes the pixels before x0 and after the last block.
func ycbcrRow(vec func(y, cb, cr []byte, hs uint, r, g, b []float32) int, yRow, cb, cr []byte, cBase, minX int, hs uint, x0 int, rr, gg, bb []float32) {
	n := 0
	if vec != nil && x0 < len(rr) {
		ci := cBase + (minX+x0)>>hs
		n = vec(yRow[x0:], cb[ci:], cr[ci:], hs, rr[x0:], gg[x0:], bb[x0:])
	}
	ycbcrPixels(yRow, cb, cr, cBase, minX, hs, rr, gg, bb, 0, x0)
	ycbcrPixels(yRow, cb, cr, cBase, minX, hs, rr, gg, bb, x0+n, len(rr))
}

// ycbcrPixels converts pixels [lo, hi) of a row laid out as ycbcrRow's.
func ycbcrPixels(yRow, cb, cr []byte, cBase, minX int, hs uint, rr, gg, bb []float32, lo, hi int) {
	for x := lo; x < hi; x++ {
		// color.YCbCr.RGBA's integer arithmetic, inlined.
		ci := cBase + (minX+x)>>hs
		yy1 := int32(yRow[x]) * 0x10101
		cb1 := int32(cb[ci]) - 128
		cr1 := int32(cr[ci]) - 128
		rr[x] = float32(clamp16(yy1+91881*cr1)) / 65535
		gg[x] = float32(clamp16(yy1-22554*cb1-46802*cr1)) / 65535
		bb[x] = float32(clamp16(yy1+116130*cb1)) / 65535
	}
}

// chromaShifts returns the horizontal and vertical log2 subsampling of a
// YCbCr ratio, and false for a ratio image.YCbCr does not define.
func chromaShifts(ratio image.YCbCrSubsampleRatio) (h, v uint, ok bool) {
	switch ratio {
	case image.YCbCrSubsampleRatio444:
		return 0, 0, true
	case image.YCbCrSubsampleRatio422:
		return 1, 0, true
	case image.YCbCrSubsampleRatio420:
		return 1, 1, true
	case image.YCbCrSubsampleRatio440:
		return 0, 1, true
	case image.YCbCrSubsampleRatio411:
		return 2, 0, true
	case image.YCbCrSubsampleRatio410:
		return 2, 1, true
	}
	return 0, 0, false
}

// clamp16 is color.YCbCr.RGBA's rounding of one channel: v>>8 when that
// fits 16 bits, else 0 for negative v and 0xffff for large.
func clamp16(v int32) uint32 {
	if uint32(v)&0xff000000 == 0 {
		return uint32(v >> 8)
	}
	return uint32(^(v >> 31) & 0xffff)
}

// unit8 maps an 8-bit channel to the sample FromGoImage stores for it.
var unit8 = func() (t [256]float32) {
	for v := range t {
		t[v] = float32(v*0x101) / 65535
	}
	return t
}()

// SavePNG writes the image to path as an 8-bit PNG.
func (m *Image) SavePNG(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("imgproc: %w", err)
	}
	defer f.Close()
	if err := png.Encode(f, m.ToNRGBA()); err != nil {
		return fmt.Errorf("imgproc: encode %s: %w", path, err)
	}
	return f.Close()
}

// LoadPNG reads a PNG file into a float32 Image.
func LoadPNG(path string) (*Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("imgproc: %w", err)
	}
	defer f.Close()
	src, err := png.Decode(f)
	if err != nil {
		return nil, fmt.Errorf("imgproc: decode %s: %w", path, err)
	}
	return FromGoImage(src), nil
}
