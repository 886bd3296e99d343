package imgproc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/tensor"
)

// ErrJPEGDeclined matches (errors.Is) every DecodeJPEG error that leaves a
// body to image/jpeg: a feature outside the decoder's scope, or a body it
// cannot decode exactly as image/jpeg would, which includes every body
// image/jpeg refuses.
var ErrJPEGDeclined = errors.New("imgproc: JPEG left to image/jpeg")

// jpegDecline is one reason DecodeJPEG leaves a body to image/jpeg.
type jpegDecline string

func (e jpegDecline) Error() string        { return ErrJPEGDeclined.Error() + ": " + string(e) }
func (e jpegDecline) Is(target error) bool { return target == ErrJPEGDeclined }

// DecodeJPEG decodes a baseline JPEG into the float image newImage returns
// for its width and height — the image FromGoImage makes of image/jpeg's
// decode of the same bytes, bit for bit — without building an image.YCbCr:
// each row of 8×8 blocks is decoded into a band of Y, Cb and Cr bytes and
// converted by FromGoImage's own row code.
//
// It decodes one interleaved Huffman scan of an 8-bit SOF0 or SOF1 frame,
// gray or YCbCr with luma sampling factors of 1 or 2 and 1×1 chroma (4:4:4,
// 4:2:2, 4:4:0, 4:2:0), with 8- or 16-bit quantisation tables. Anything
// else — restart intervals, an Adobe APP14 segment, R, G, B component ids,
// progressive or arithmetic coding, four components, a second scan — and
// every body image/jpeg would refuse or that runs out of bits is declined
// with an error matching ErrJPEGDeclined. newImage is called once, after
// every header up to the scan has been read, unless the data left is too
// short to hold the scan — at least two bits a block — which is refused
// outright, as image/jpeg would refuse it; an error newImage returns is
// DecodeJPEG's, as it is. The image it returns must be w×h, and its samples
// are all overwritten; after any error they are unspecified.
func DecodeJPEG(data []byte, newImage func(w, h int) (*Image, error)) (*Image, error) {
	d := jpegPool.Get().(*jpegDecoder)
	d.data, d.baseline, d.nComp, d.quantSet, d.huffSet = data, false, 0, 0, 0
	clear(d.blk[:]) // an earlier decode may have stopped mid-block
	img, err := d.decode(newImage)
	d.data = nil
	jpegPool.Put(d)
	return img, err
}

// jpegPool recycles decoder state: Huffman tables and band scratch.
var jpegPool = sync.Pool{New: func() any { return new(jpegDecoder) }}

// jpegLookBits is the width of the Huffman lookahead window.
const jpegLookBits = 10

// huffTable is one DHT table. lut, indexed by the next jpegLookBits bits,
// holds for each code of at most that many bits the entry
//
//	value<<16 | fused<<12 | length<<8 | symbol
//
// where fused, when not 0, is the length plus the symbol's extra bits and
// value their extended value: a DC symbol's difference, or an AC symbol's
// coefficient, whenever both fit the window. A zero entry sends the decoder
// to the canonical code tables, which are image/jpeg's minCodes, maxCodes
// and valsIndices.
type huffTable struct {
	lut                        [1 << jpegLookBits]int32
	minCode, maxCode, valIndex [16]int32
	vals                       [256]uint8
}

// build derives the lookup tables from the per-length code counts, with
// the symbols already in vals. It refuses an over-subscribed table, which
// image/jpeg decodes through a lookup table its codes overwrite.
func (h *huffTable) build(counts *[16]int32, ac bool) bool {
	clear(h.lut[:])
	code, k := int32(0), int32(0)
	for l := uint(1); l <= 16; l++ {
		n := counts[l-1]
		h.minCode[l-1], h.maxCode[l-1], h.valIndex[l-1] = -1, -1, -1
		if n != 0 {
			h.minCode[l-1], h.maxCode[l-1], h.valIndex[l-1] = code, code+n-1, k
		}
		for ; n > 0; n, code, k = n-1, code+1, k+1 {
			if code >= 1<<l {
				return false
			}
			if l > jpegLookBits {
				continue
			}
			sym := h.vals[k]
			size := uint(sym)
			if ac {
				size = uint(sym & 15)
			}
			free := jpegLookBits - l
			for f := int32(0); f < 1<<free; f++ {
				e := int32(l)<<8 | int32(sym)
				if (!ac || size != 0) && size <= free {
					e |= extend(f>>(free-size), size)<<16 | int32(l+size)<<12
				}
				h.lut[code<<free|f] = e
			}
		}
		code <<= 1
	}
	return true
}

// extend is the JPEG EXTEND of the t-bit value x (section F.2.2.1).
func extend(x int32, t uint) int32 {
	if t == 0 {
		return 0
	}
	if x < 1<<(t-1) {
		x += -1<<t + 1
	}
	return x
}

type jpegComponent struct {
	id, h, v, tq uint8
}

// jpegDecoder is one decode's state.
type jpegDecoder struct {
	data     []byte
	pos      int
	baseline bool
	width    int
	height   int
	nComp    int
	comp     [3]jpegComponent
	quant    [4][64]int32 // zig-zag order, as DQT sends them
	quantSet uint8        // bit tq: table tq was defined
	huffSet  uint8        // bit 4·class+th: table th of class was defined
	huff     [2][4]huffTable
	blk      [64]int32
	band     [3][]byte // one row of blocks per component
}

// decode is image/jpeg's marker loop: the same segments in the same order,
// refused where it refuses.
func (d *jpegDecoder) decode(newImage func(w, h int) (*Image, error)) (*Image, error) {
	if len(d.data) < 2 || d.data[0] != 0xff || d.data[1] != 0xd8 {
		return nil, jpegDecline("missing SOI marker")
	}
	d.pos = 2
	var img *Image
	for {
		marker, err := d.nextMarker()
		if err != nil {
			return nil, err
		}
		if marker == 0xd9 { // EOI
			break
		}
		if 0xd0 <= marker && marker <= 0xd7 { // a stray RST has no length
			continue
		}
		if d.pos+2 > len(d.data) {
			return nil, jpegDecline("short segment")
		}
		n := int(d.data[d.pos])<<8 | int(d.data[d.pos+1]) - 2
		d.pos += 2
		if n < 0 || d.pos+n > len(d.data) {
			return nil, jpegDecline("segment length")
		}
		seg := d.data[d.pos : d.pos+n]
		d.pos += n
		switch {
		case marker == 0xc0 || marker == 0xc1:
			err = d.processSOF(seg, marker == 0xc0)
		case marker == 0xc4:
			err = d.processDHT(seg)
		case marker == 0xdb:
			err = d.processDQT(seg)
		case marker == 0xda && img != nil:
			err = jpegDecline("second scan")
		case marker == 0xda:
			img, err = d.processSOS(seg, newImage)
		case marker == 0xee:
			err = jpegDecline("APP14")
		case 0xe0 <= marker && marker <= 0xef || marker == 0xfe:
			// APPn and COM are skipped.
		default:
			err = jpegDecline("marker")
		}
		if err != nil {
			return nil, err
		}
	}
	if img == nil {
		return nil, jpegDecline("missing SOS marker")
	}
	return img, nil
}

// nextMarker skips to the next marker as image/jpeg does: bytes before an
// 0xff, "\xff\x00" pairs and fill bytes are passed over.
func (d *jpegDecoder) nextMarker() (byte, error) {
	for {
		if d.pos+2 > len(d.data) {
			return 0, jpegDecline("missing EOI marker")
		}
		a, m := d.data[d.pos], d.data[d.pos+1]
		d.pos += 2
		for a != 0xff {
			if d.pos >= len(d.data) {
				return 0, jpegDecline("missing EOI marker")
			}
			a, m = m, d.data[d.pos]
			d.pos++
		}
		if m == 0 {
			continue
		}
		for m == 0xff {
			if d.pos >= len(d.data) {
				return 0, jpegDecline("missing EOI marker")
			}
			m = d.data[d.pos]
			d.pos++
		}
		return m, nil
	}
}

func (d *jpegDecoder) processSOF(seg []byte, baseline bool) error {
	if d.nComp != 0 {
		return jpegDecline("multiple SOF markers")
	}
	n := (len(seg) - 6) / 3
	if len(seg) != 6+3*n || n != 1 && n != 3 || seg[0] != 8 || int(seg[5]) != n {
		return jpegDecline("frame")
	}
	d.baseline = baseline
	d.height = int(seg[1])<<8 | int(seg[2])
	d.width = int(seg[3])<<8 | int(seg[4])
	for i := range n {
		c := &d.comp[i]
		c.id, c.tq = seg[6+3*i], seg[8+3*i]
		for j := range i {
			if c.id == d.comp[j].id {
				return jpegDecline("repeated component identifier")
			}
		}
		h, v := seg[7+3*i]>>4, seg[7+3*i]&15
		if c.tq > 3 || h < 1 || h > 4 || v < 1 || v > 4 || h == 3 || v == 3 {
			return jpegDecline("component")
		}
		switch {
		case n == 1:
			h, v = 1, 1 // a single component is never subsampled
		case i == 0 && (h > 2 || v > 2), i > 0 && (h != 1 || v != 1):
			return jpegDecline("subsampling")
		}
		c.h, c.v = h, v
	}
	if n == 3 && d.comp[0].id == 'R' && d.comp[1].id == 'G' && d.comp[2].id == 'B' {
		return jpegDecline("RGB components")
	}
	d.nComp = n
	return nil
}

func (d *jpegDecoder) processDQT(seg []byte) error {
	for len(seg) > 0 {
		pq, tq := seg[0]>>4, seg[0]&15
		seg = seg[1:]
		if tq > 3 || pq > 1 {
			return jpegDecline("DQT")
		}
		size := 64 << pq
		if len(seg) < size {
			break
		}
		q := &d.quant[tq]
		for i := range q {
			if pq == 0 {
				q[i] = int32(seg[i])
			} else {
				q[i] = int32(seg[2*i])<<8 | int32(seg[2*i+1])
			}
		}
		d.quantSet |= 1 << tq
		seg = seg[size:]
	}
	if len(seg) != 0 {
		return jpegDecline("DQT has wrong length")
	}
	return nil
}

func (d *jpegDecoder) processDHT(seg []byte) error {
	for len(seg) > 0 {
		if len(seg) < 17 {
			return jpegDecline("DHT has wrong length")
		}
		tc, th := seg[0]>>4, seg[0]&15
		if tc > 1 || th > 3 || d.baseline && th > 1 {
			return jpegDecline("DHT")
		}
		var counts [16]int32
		total := 0
		for i := range counts {
			counts[i] = int32(seg[1+i])
			total += int(seg[1+i])
		}
		if total == 0 || total > 256 || len(seg) < 17+total {
			return jpegDecline("DHT has wrong length")
		}
		h := &d.huff[tc][th]
		copy(h.vals[:], seg[17:17+total])
		if !h.build(&counts, tc == 1) {
			return jpegDecline("over-subscribed Huffman table")
		}
		d.huffSet |= 1 << (4*tc + th)
		seg = seg[17+total:]
	}
	return nil
}

// jpegScan is one scan component's decoding state.
type jpegScan struct {
	ci     int // frame component
	dc, ac *huffTable
	q      *[64]int32
	h, v   int
	stride int // of the component's band
	dcPred int32
}

// processSOS checks the scan header as image/jpeg does, asks newImage for
// the frame and decodes the scan into it, one row of MCUs at a time.
func (d *jpegDecoder) processSOS(seg []byte, newImage func(w, h int) (*Image, error)) (*Image, error) {
	if d.nComp == 0 || len(seg) != 4+2*d.nComp || int(seg[0]) != d.nComp {
		return nil, jpegDecline("SOS")
	}
	var scan [3]jpegScan
	for i := range d.nComp {
		sel, td, ta := seg[1+2*i], seg[2+2*i]>>4, seg[2+2*i]&15
		ci := -1
		for j := range d.nComp {
			if d.comp[j].id == sel {
				ci = j
			}
		}
		if ci < 0 || td > 3 || ta > 3 || d.baseline && (td > 1 || ta > 1) {
			return nil, jpegDecline("SOS component")
		}
		for j := range i {
			if scan[j].ci == ci {
				return nil, jpegDecline("repeated component selector")
			}
		}
		c := &d.comp[ci]
		if d.huffSet&(1<<td) == 0 || d.huffSet&(1<<(4+ta)) == 0 || d.quantSet&(1<<c.tq) == 0 {
			return nil, jpegDecline("undefined table")
		}
		scan[i] = jpegScan{ci: ci, dc: &d.huff[0][td], ac: &d.huff[1][ta], q: &d.quant[c.tq], h: int(c.h), v: int(c.v)}
	}
	if d.width == 0 || d.height == 0 {
		return nil, jpegDecline("empty image")
	}
	h0, v0 := int(d.comp[0].h), int(d.comp[0].v)
	mxx := (d.width + 8*h0 - 1) / (8 * h0)
	myy := (d.height + 8*v0 - 1) / (8 * v0)
	// Every block takes at least two bits, a DC and an AC code, so
	// image/jpeg refuses a body too short for that as well: it is refused
	// here, before newImage can allocate a frame for it.
	if blocks := mxx * myy * (h0*v0 + d.nComp - 1); 8*(len(d.data)-d.pos) < 2*blocks {
		return nil, fmt.Errorf("imgproc: %d bytes of JPEG scan cannot hold a %dx%d frame", len(d.data)-d.pos, d.width, d.height)
	}
	img, err := newImage(d.width, d.height)
	if err != nil {
		return nil, err
	}
	for i := range d.nComp {
		s := &scan[i]
		s.stride = 8 * s.h * mxx
		if n := 8 * s.v * s.stride; cap(d.band[s.ci]) < n {
			d.band[s.ci] = make([]byte, n)
		}
	}
	w, plane := d.width, d.width*d.height
	r, g, b := img.Pix[:plane], img.Pix[plane:2*plane], img.Pix[2*plane:3*plane]
	hs, vs := uint(h0-1), uint(v0-1)
	idct8x8, rowKernel := tensor.IDCTKernel(), tensor.YCbCrRowKernel()
	br := bitReader{data: d.data, pos: d.pos}
	for my := 0; my < myy; my++ {
		for mx := 0; mx < mxx; mx++ {
			for i := range d.nComp {
				s := &scan[i]
				band := d.band[s.ci]
				for j := 0; j < s.h*s.v; j++ {
					ac, err := br.decodeBlock(&d.blk, s)
					if err != nil {
						return nil, err
					}
					dst := band[8*(j/s.h)*s.stride+8*(s.h*mx+j%s.h):]
					switch {
					case !ac:
						fillBlock(dst, s.stride, d.blk[0])
						d.blk[0] = 0
					case idct8x8 != nil:
						idct8x8(&d.blk, dst, s.stride)
						clear(d.blk[:])
					default:
						idct(&d.blk)
						storeBlock(&d.blk, dst, s.stride)
						clear(d.blk[:])
					}
				}
			}
		}
		y0 := 8 * v0 * my
		for y := y0; y < min(y0+8*v0, d.height); y++ {
			yRow := d.band[0][(y-y0)*8*h0*mxx:][:w]
			rr, gg, bb := r[y*w:][:w], g[y*w:][:w], b[y*w:][:w]
			if d.nComp == 1 {
				for x, v := range yRow {
					rr[x], gg[x], bb[x] = unit8[v], unit8[v], unit8[v]
				}
				continue
			}
			ycbcrRow(rowKernel, yRow, d.band[1], d.band[2], (y-y0)>>vs*8*mxx, 0, hs, 0, rr, gg, bb)
		}
	}
	d.pos = br.pos
	return img, nil
}

// bitReader reads a scan's entropy-coded bits: acc holds n of them from its
// top bit down, read from data up to pos with each "\xff\x00" unstuffed.
// It never reads past a marker or the end of data, so bits beyond n are
// zero once it stops there.
type bitReader struct {
	data []byte
	pos  int
	acc  uint64
	n    uint
}

// refill tops acc up to at least 57 bits unless a marker or the end of the
// data comes first. Eight bytes without an 0xff are taken in one load.
func (br *bitReader) refill() {
	for br.n <= 56 {
		if br.pos+8 <= len(br.data) {
			w := binary.BigEndian.Uint64(br.data[br.pos:])
			if z := ^w; (z-0x0101010101010101)&^z&0x8080808080808080 == 0 {
				// The bytes past the k whole ones land below n: they are
				// the next byte's leading bits, which its own read sets again.
				k := (64 - br.n) >> 3
				br.acc |= w >> br.n
				br.n += 8 * k
				br.pos += int(k)
				return
			}
		}
		if br.pos >= len(br.data) {
			return
		}
		c := br.data[br.pos]
		if c == 0xff {
			if br.pos+1 >= len(br.data) || br.data[br.pos+1] != 0 {
				return
			}
			br.pos++
		}
		br.pos++
		br.acc |= uint64(c) << (56 - br.n)
		br.n += 8
	}
}

// symbol decodes one Huffman symbol, given its lookahead entry e.
func (br *bitReader) symbol(h *huffTable, e int32) (uint8, bool) {
	if l := uint(e>>8) & 15; l != 0 {
		if l > br.n {
			return 0, false
		}
		br.acc <<= l
		br.n -= l
		return uint8(e), true
	}
	for l := uint(1); l <= 16 && l <= br.n; l++ {
		if code := int32(br.acc >> (64 - l)); code <= h.maxCode[l-1] {
			br.acc <<= l
			br.n -= l
			return h.vals[h.valIndex[l-1]+code-h.minCode[l-1]], true
		}
	}
	return 0, false
}

// receiveExtend reads t bits and extends them.
func (br *bitReader) receiveExtend(t uint8) (int32, bool) {
	if uint(t) > br.n {
		return 0, false
	}
	x := int32(br.acc >> (64 - uint(t)))
	br.acc <<= t
	br.n -= uint(t)
	return extend(x, uint(t)), true
}

var errShortHuffman = jpegDecline("bad or short Huffman data")

// decodeBlock reads one block's coefficients into blk, dequantised and in
// natural order, as image/jpeg's processSOS and reconstructBlock do: the
// DC difference accumulates in s.dcPred and the products in int32, both
// wrapping as image/jpeg's do, and a run past coefficient 63 ends the
// block without reading its value. It reports whether any AC coefficient
// was set.
func (br *bitReader) decodeBlock(blk *[64]int32, s *jpegScan) (ac bool, err error) {
	if br.n < 32 {
		br.refill()
	}
	e := s.dc.lut[br.acc>>(64-jpegLookBits)]
	if full := uint(e>>12) & 15; full != 0 && full <= br.n {
		br.acc <<= full
		br.n -= full
		s.dcPred += e >> 16
	} else {
		t, ok := br.symbol(s.dc, e)
		if !ok {
			return false, errShortHuffman
		}
		if t > 16 {
			return false, jpegDecline("excessive DC component")
		}
		diff, ok := br.receiveExtend(t)
		if !ok {
			return false, errShortHuffman
		}
		s.dcPred += diff
	}
	q := s.q
	blk[0] = s.dcPred * q[0]
	for zig := 1; zig < 64; zig++ {
		if br.n < 32 {
			br.refill()
		}
		e := s.ac.lut[br.acc>>(64-jpegLookBits)]
		if full := uint(e>>12) & 15; full != 0 && full <= br.n {
			zig += int(uint8(e) >> 4)
			if zig > 63 {
				br.acc <<= uint(e>>8) & 15
				br.n -= uint(e>>8) & 15
				break
			}
			br.acc <<= full
			br.n -= full
			blk[unzig[zig]] = (e >> 16) * q[zig]
			ac = true
			continue
		}
		sym, ok := br.symbol(s.ac, e)
		if !ok {
			return false, errShortHuffman
		}
		run, size := int(sym>>4), sym&15
		if size == 0 {
			if run == 0 { // EOB
				break
			}
			if run != 15 {
				return false, jpegDecline("end-of-band run")
			}
			zig += 15 // ZRL
			continue
		}
		zig += run
		if zig > 63 {
			break
		}
		v, ok := br.receiveExtend(size)
		if !ok {
			return false, errShortHuffman
		}
		blk[unzig[zig]] = v * q[zig]
		ac = true
	}
	return ac, nil
}

// unzig maps zig-zag order to natural order (image/jpeg's table).
var unzig = [64]uint8{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

// fillBlock stores the block whose only coefficient is dc: idct's row pass
// takes its shortcut on every row, and every column then reduces to the
// one value below.
func fillBlock(dst []byte, stride int, dc int32) {
	v := uint64(clampSample((dc<<3<<8 + 8192) >> 14))
	for y := range 8 {
		binary.LittleEndian.PutUint64(dst[y*stride:], v*0x0101010101010101)
	}
}

// clampSample is reconstructBlock's level shift by +128 and clip to
// [0, 255].
func clampSample(c int32) uint8 {
	if c < -128 {
		return 0
	}
	if c > 127 {
		return 255
	}
	return uint8(c + 128)
}

// storeBlock writes an inverse-transformed block to dst, rows stride
// apart, through clampSample.
func storeBlock(b *[64]int32, dst []byte, stride int) {
	for y := range 8 {
		row := dst[y*stride:][:8]
		for x := range row {
			row[x] = clampSample(b[8*y+x])
		}
	}
}

// image/jpeg's fixed-point IDCT weights: w_k = 2048·√2·cos(kπ/16), and r2 =
// 256/√2.
const (
	idctW1 = 2841
	idctW2 = 2676
	idctW3 = 2408
	idctW5 = 1609
	idctW6 = 1108
	idctW7 = 565
	idctR2 = 181
)

// idct is image/jpeg's 2-D inverse DCT (idct.go) in place: a row pass,
// with its shortcut for a row whose AC coefficients are all zero, then a
// column pass, in int32 arithmetic. The avx2 idct8x8 kernel reproduces it
// bit for bit.
func idct(src *[64]int32) {
	for y := 0; y < 8; y++ {
		s := src[8*y : 8*y+8 : 8*y+8]
		if s[1] == 0 && s[2] == 0 && s[3] == 0 && s[4] == 0 && s[5] == 0 && s[6] == 0 && s[7] == 0 {
			dc := s[0] << 3
			s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7] = dc, dc, dc, dc, dc, dc, dc, dc
			continue
		}
		x0 := (s[0] << 11) + 128
		x1 := s[4] << 11
		x2, x3, x4, x5, x6, x7 := s[6], s[2], s[1], s[7], s[5], s[3]

		x8 := idctW7 * (x4 + x5)
		x4 = x8 + (idctW1-idctW7)*x4
		x5 = x8 - (idctW1+idctW7)*x5
		x8 = idctW3 * (x6 + x7)
		x6 = x8 - (idctW3-idctW5)*x6
		x7 = x8 - (idctW3+idctW5)*x7

		x8 = x0 + x1
		x0 -= x1
		x1 = idctW6 * (x3 + x2)
		x2 = x1 - (idctW2+idctW6)*x2
		x3 = x1 + (idctW2-idctW6)*x3
		x1 = x4 + x6
		x4 -= x6
		x6 = x5 + x7
		x5 -= x7

		x7 = x8 + x3
		x8 -= x3
		x3 = x0 + x2
		x0 -= x2
		x2 = (idctR2*(x4+x5) + 128) >> 8
		x4 = (idctR2*(x4-x5) + 128) >> 8

		s[0] = (x7 + x1) >> 8
		s[1] = (x3 + x2) >> 8
		s[2] = (x0 + x4) >> 8
		s[3] = (x8 + x6) >> 8
		s[4] = (x8 - x6) >> 8
		s[5] = (x0 - x4) >> 8
		s[6] = (x3 - x2) >> 8
		s[7] = (x7 - x1) >> 8
	}
	for x := 0; x < 8; x++ {
		s := src[x : x+57 : x+57]
		y0 := (s[0] << 8) + 8192
		y1 := s[32] << 8
		y2, y3, y4, y5, y6, y7 := s[48], s[16], s[8], s[56], s[40], s[24]

		y8 := idctW7*(y4+y5) + 4
		y4 = (y8 + (idctW1-idctW7)*y4) >> 3
		y5 = (y8 - (idctW1+idctW7)*y5) >> 3
		y8 = idctW3*(y6+y7) + 4
		y6 = (y8 - (idctW3-idctW5)*y6) >> 3
		y7 = (y8 - (idctW3+idctW5)*y7) >> 3

		y8 = y0 + y1
		y0 -= y1
		y1 = idctW6*(y3+y2) + 4
		y2 = (y1 - (idctW2+idctW6)*y2) >> 3
		y3 = (y1 + (idctW2-idctW6)*y3) >> 3
		y1 = y4 + y6
		y4 -= y6
		y6 = y5 + y7
		y5 -= y7

		y7 = y8 + y3
		y8 -= y3
		y3 = y0 + y2
		y0 -= y2
		y2 = (idctR2*(y4+y5) + 128) >> 8
		y4 = (idctR2*(y4-y5) + 128) >> 8

		s[0] = (y7 + y1) >> 14
		s[8] = (y3 + y2) >> 14
		s[16] = (y0 + y4) >> 14
		s[24] = (y8 + y6) >> 14
		s[32] = (y8 - y6) >> 14
		s[40] = (y0 - y4) >> 14
		s[48] = (y3 - y2) >> 14
		s[56] = (y7 - y1) >> 14
	}
}
