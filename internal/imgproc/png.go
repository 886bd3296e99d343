package imgproc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/adler32"
	"hash/crc32"
	"math/bits"
	"sync"
)

// ErrPNGDeclined matches (errors.Is) every DecodePNG error that leaves a
// body to image/png: a feature outside the decoder's scope, or a body it
// cannot prove image/png decodes to the same pixels, which includes every
// body image/png refuses.
var ErrPNGDeclined = errors.New("imgproc: PNG left to image/png")

// pngDecline is one reason DecodePNG leaves a body to image/png.
type pngDecline string

func (e pngDecline) Error() string        { return ErrPNGDeclined.Error() + ": " + string(e) }
func (e pngDecline) Is(target error) bool { return target == ErrPNGDeclined }

const pngSignature = "\x89PNG\r\n\x1a\n"

// Chunk types, as their four bytes read big-endian.
const (
	chunkIHDR = 0x49484452
	chunkPLTE = 0x504c5445
	chunkTRNS = 0x74524e53
	chunkIDAT = 0x49444154
	chunkIEND = 0x49454e44
)

// maxInflateRatio bounds what one byte of deflate data can expand to: a
// 258-byte match takes at least a one-bit length code and a one-bit
// distance code, so eight bits give at most 4·258 bytes.
const maxInflateRatio = 1032

// pngPooledBytes caps the scratch a pooled decoder keeps, so one large
// upload does not stay resident in the pool.
const pngPooledBytes = 4 << 20

// DecodePNG decodes a PNG into the float image newImage returns for its
// width and height — the image FromGoImage makes of image/png's decode of
// the same bytes, bit for bit — without building a Go image: the IDAT data
// is inflated into a pooled byte buffer, each scanline is unfiltered in
// place and converted straight into the float planes.
//
// It decodes non-interlaced 8-bit gray, RGB and RGBA (colour types 0, 2
// and 6) whose chunks, from IHDR to IEND, image/png would read without
// error: every chunk CRC, the zlib header and the Adler-32 are checked,
// and the zlib stream must end exactly at the end of an IDAT chunk, where
// image/png's own bookkeeping is exact. Anything else — palette, gray with
// alpha, 16-bit or sub-byte samples, Adam7, a PLTE or tRNS chunk, a preset
// dictionary, chunks before IHDR — and every body image/png would refuse
// is declined with an error matching ErrPNGDeclined. A body whose IDAT run
// is too short to inflate to the declared scanlines, even at deflate's
// largest ratio, is refused outright, as image/png would refuse it, before
// newImage is called. newImage is called once, after every chunk has been
// read; an error it returns is DecodePNG's, as it is. The image it returns
// must be w×h, and its samples are all overwritten; after any error they
// are unspecified.
func DecodePNG(data []byte, newImage func(w, h int) (*Image, error)) (*Image, error) {
	d := pngPool.Get().(*pngDecoder)
	img, err := d.decode(data, newImage)
	if cap(d.raw) > pngPooledBytes {
		d.raw = nil
	}
	if cap(d.idat) > pngPooledBytes {
		d.idat = nil
	}
	pngPool.Put(d)
	return img, err
}

// pngPool recycles decoder state: the scanline and IDAT buffers and the
// Huffman tables.
var pngPool = sync.Pool{New: func() any { return new(pngDecoder) }}

type pngDecoder struct {
	raw  []byte // the inflated scanlines, each a filter byte and the row
	idat []byte // the IDAT data, when it spans several chunks
	zero []byte // a zero row: the row above the first
	inflater
}

// pngChunk reads the chunk at data[pos:]: its type, its data and the
// offset past its CRC. ok is false when the chunk overruns data.
func pngChunk(data []byte, pos int) (typ uint32, body []byte, next int, ok bool) {
	if len(data)-pos < 12 {
		return 0, nil, 0, false
	}
	n := binary.BigEndian.Uint32(data[pos:])
	if uint64(n) > uint64(len(data)-pos-12) {
		return 0, nil, 0, false
	}
	end := pos + 8 + int(n)
	return binary.BigEndian.Uint32(data[pos+4:]), data[pos+8 : end], end + 4, true
}

// pngCRCOK checks the CRC of the chunk at data[pos:next], which pngChunk
// has read.
func pngCRCOK(data []byte, pos, next int) bool {
	return crc32.ChecksumIEEE(data[pos+4:next-4]) == binary.BigEndian.Uint32(data[next-4:])
}

// decode is image/png's chunk loop for the shapes in scope, declining
// wherever image/png would go down another path or refuse.
func (d *pngDecoder) decode(data []byte, newImage func(w, h int) (*Image, error)) (*Image, error) {
	if len(data) < len(pngSignature) || string(data[:len(pngSignature)]) != pngSignature {
		return nil, pngDecline("signature")
	}
	pos := len(pngSignature)
	typ, hdr, next, ok := pngChunk(data, pos)
	if !ok || typ != chunkIHDR || len(hdr) != 13 || !pngCRCOK(data, pos, next) {
		return nil, pngDecline("IHDR")
	}
	w, h := int32(binary.BigEndian.Uint32(hdr[0:])), int32(binary.BigEndian.Uint32(hdr[4:]))
	if w <= 0 || h <= 0 {
		return nil, pngDecline("dimensions")
	}
	var bpp int
	switch hdr[9] {
	case 0:
		bpp = 1
	case 2:
		bpp = 3
	case 6:
		bpp = 4
	}
	if hdr[8] != 8 || bpp == 0 {
		return nil, pngDecline("bit depth or colour type")
	}
	if hdr[10] != 0 || hdr[11] != 0 || hdr[12] != 0 {
		return nil, pngDecline("compression, filter or interlace method")
	}
	// Up to the first IDAT, image/png skips any chunk but these four.
	for pos = next; ; pos = next {
		typ, _, next, ok = pngChunk(data, pos)
		if !ok || typ == chunkIHDR || typ == chunkPLTE || typ == chunkTRNS || typ == chunkIEND {
			return nil, pngDecline("chunk before IDAT")
		}
		if typ == chunkIDAT {
			break
		}
		if !pngCRCOK(data, pos, next) {
			return nil, pngDecline("checksum")
		}
	}
	// The run of consecutive IDAT chunks is all image/png inflates.
	first, avail, chunks := pos, 0, 0
	var body []byte
	for ; ; pos = next {
		typ, body, next, ok = pngChunk(data, pos)
		if !ok {
			avail += len(data) - pos // an upper bound on what a cut chunk holds
			break
		}
		if typ != chunkIDAT {
			break
		}
		avail += len(body)
		chunks++
	}
	stride := 1 + bpp*int(w)
	if int64(h) > maxInflateRatio*int64(avail)/int64(stride) {
		return nil, fmt.Errorf("imgproc: %d bytes of PNG image data cannot hold a %dx%d frame", avail, w, h)
	}
	if !ok {
		return nil, pngDecline("truncated")
	}
	for p := first; p < pos; {
		_, _, n, _ := pngChunk(data, p)
		if !pngCRCOK(data, p, n) {
			return nil, pngDecline("checksum")
		}
		p = n
	}
	// After the run image/png reads to IEND, skipping later IDAT chunks.
	for q := pos; ; q = next {
		typ, body, next, ok = pngChunk(data, q)
		if !ok || typ == chunkIHDR || typ == chunkPLTE || typ == chunkTRNS || !pngCRCOK(data, q, next) {
			return nil, pngDecline("chunk after IDAT")
		}
		if typ == chunkIEND {
			if len(body) != 0 {
				return nil, pngDecline("IEND")
			}
			break
		}
	}

	img, err := newImage(int(w), int(h))
	if err != nil {
		return nil, err
	}
	_, in, _, _ := pngChunk(data, first)
	if chunks > 1 {
		d.idat = d.idat[:0]
		for p := first; p < pos; {
			_, body, n, _ := pngChunk(data, p)
			d.idat = append(d.idat, body...)
			p = n
		}
		in = d.idat
	}
	// The zlib header: deflate, a window of at most 32 kB, no preset
	// dictionary, and the check bits.
	if len(in) < 2 || in[0]&0x0f != 8 || in[0]>>4 > 7 || (uint(in[0])<<8|uint(in[1]))%31 != 0 || in[1]&0x20 != 0 {
		return nil, pngDecline("zlib header")
	}
	size := int(h) * stride
	if cap(d.raw) < size {
		d.raw = make([]byte, size)
	}
	raw := d.raw[:size]
	n, ok := d.inflate(in[2:], raw)
	end := 2 + n + 4
	if !ok || end > len(in) || adler32.Checksum(raw) != binary.BigEndian.Uint32(in[end-4:]) {
		return nil, pngDecline("zlib stream")
	}
	// image/png finds the stream's end exactly only at a chunk's end: data
	// its reader buffered past the end may go unnoticed, so any is declined.
	sum := 0
	for p := first; sum < end; {
		_, body, n, _ := pngChunk(data, p)
		sum += len(body)
		p = n
	}
	if sum != end {
		return nil, pngDecline("data after the zlib stream")
	}

	if cap(d.zero) < stride-1 {
		d.zero = make([]byte, stride-1)
	}
	prev := d.zero[:stride-1]
	width, plane := int(w), int(w)*int(h)
	r, g, b := img.Pix[:plane], img.Pix[plane:2*plane], img.Pix[2*plane:3*plane]
	for y := range int(h) {
		row := raw[y*stride : (y+1)*stride]
		cur := row[1:]
		if !unfilter(row[0], cur, prev, bpp) {
			return nil, pngDecline("filter type")
		}
		rr, gg, bb := r[y*width:][:width], g[y*width:][:width], b[y*width:][:width]
		switch bpp {
		case 1:
			for x, v := range cur {
				rr[x], gg[x], bb[x] = unit8[v], unit8[v], unit8[v]
			}
		case 3:
			for x := range rr {
				p := cur[3*x : 3*x+3]
				rr[x], gg[x], bb[x] = unit8[p[0]], unit8[p[1]], unit8[p[2]]
			}
		case 4:
			for x := range rr {
				p := cur[4*x : 4*x+4]
				if a := uint32(p[3]); a == 0xff {
					rr[x], gg[x], bb[x] = unit8[p[0]], unit8[p[1]], unit8[p[2]]
				} else {
					// color.NRGBA.RGBA's premultiply.
					rr[x] = float32(uint32(p[0])*0x101*a/0xff) / 65535
					gg[x] = float32(uint32(p[1])*0x101*a/0xff) / 65535
					bb[x] = float32(uint32(p[2])*0x101*a/0xff) / 65535
				}
			}
		}
		prev = cur
	}
	return img, nil
}

// unfilter reverses the filter ft of the scanline cur in place, given the
// unfiltered row above it; false means ft is not a PNG filter type.
func unfilter(ft byte, cur, prev []byte, bpp int) bool {
	prev = prev[:len(cur)]
	switch ft {
	case 0:
	case 1: // Sub
		for i := bpp; i < len(cur); i++ {
			cur[i] += cur[i-bpp]
		}
	case 2: // Up
		for i, p := range prev {
			cur[i] += p
		}
	case 3: // Average
		for i := range bpp {
			cur[i] += prev[i] / 2
		}
		for i := bpp; i < len(cur); i++ {
			cur[i] += uint8((uint(cur[i-bpp]) + uint(prev[i])) >> 1)
		}
	case 4: // Paeth
		for i := range bpp {
			cur[i] += prev[i]
		}
		for i := bpp; i < len(cur); i++ {
			cur[i] += uint8(paeth(int(cur[i-bpp]), int(prev[i]), int(prev[i-bpp])))
		}
	default:
		return false
	}
	return true
}

// paeth is the Paeth predictor of a byte from its left (a), upper (b)
// and upper-left (c) neighbours.
func paeth(a, b, c int) int {
	pa, pb := b-c, a-c
	pc := abs(pa + pb)
	pa, pb = abs(pa), abs(pb)
	p := c
	if pb <= pc {
		p = b
	}
	if pa <= pb && pa <= pc {
		p = a
	}
	return p
}

func abs(x int) int {
	m := x >> (bits.UintSize - 1)
	return (x ^ m) - m
}

// Huffman table entries. A table is indexed by the next bits of the
// stream, least significant first: a primary table of 1<<root entries,
// then the subtables its hSub entries point to. An entry is
//
//	value<<16 | extra<<8 | flags | length
//
// where length (bits 0–3) is the code's length in bits, counted from the
// end of the primary bits for a subtable entry, and the root width for an
// hSub entry. value is a literal byte or code-length symbol (hLit), a
// length or distance base with extra extra bits (no flag), or for hSub the
// subtable's offset, extra then being its index width. A zero entry is no
// code, or a symbol compress/flate refuses.
const (
	hLit = 1 << 7
	hEOB = 1 << 6
	hSub = 1 << 5
)

const (
	litRoot  = 10
	distRoot = 8
)

// inflater holds one stream's Huffman tables.
type inflater struct {
	lit, dist []uint32
	clen      [1 << 7]uint32
	lens      [286 + 30]uint8
}

// litPayload, distPayload and clenPayload are each symbol's entry without
// its length.
var (
	litPayload = func() (t [288]uint32) {
		for s := range 256 {
			t[s] = uint32(s)<<16 | hLit
		}
		t[256] = hEOB
		base, extra := uint32(3), uint32(0)
		for s := 257; s < 285; s++ {
			if s >= 265 && (s-265)%4 == 0 {
				extra++
			}
			t[s] = base<<16 | extra<<8
			base += 1 << extra
		}
		t[285] = 258 << 16
		return t // 286 and 287 stay zero: compress/flate refuses them
	}()
	distPayload = func() (t [32]uint32) {
		base, extra := uint32(1), uint32(0)
		for s := range 30 {
			if s >= 4 && s%2 == 0 {
				extra++
			}
			t[s] = base<<16 | extra<<8
			base += 1 << extra
		}
		return t // 30 and 31 stay zero
	}()
	clenPayload = func() (t [19]uint32) {
		for s := range t {
			t[s] = uint32(s)<<16 | hLit
		}
		return t
	}()
)

// fixedTables returns the tables of the fixed Huffman code (RFC 1951
// §3.2.6), built on first use.
var fixedTables = sync.OnceValues(func() (lit, dist []uint32) {
	var lens [288]uint8
	for s := range lens {
		switch {
		case s < 144:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		case s < 280:
			lens[s] = 7
		default:
			lens[s] = 8
		}
	}
	lit, _ = buildTable(nil, lens[:], litPayload[:], litRoot)
	var dlens [32]uint8
	for s := range dlens {
		dlens[s] = 5
	}
	dist, _ = buildTable(nil, dlens[:], distPayload[:], distRoot)
	return lit, dist
})

// buildTable builds into t's storage the decoding table of the canonical
// code with the given lengths. It reports false for a code
// compress/flate's huffmanDecoder.init refuses: over-subscribed, or
// incomplete other than a single code of length 1. An empty code is
// accepted and decodes nothing.
func buildTable(t []uint32, lens []uint8, payload []uint32, root uint) ([]uint32, bool) {
	var count, next [16]int
	maxLen := 0
	for _, l := range lens {
		count[l]++
		maxLen = max(maxLen, int(l))
	}
	t = append(t[:0], make([]uint32, 1<<root)...)
	if maxLen == 0 {
		return t, true
	}
	code := 0
	for l := 1; l <= maxLen; l++ {
		code <<= 1
		next[l] = code
		code += count[l]
	}
	if code != 1<<maxLen && !(code == 1 && maxLen == 1) {
		return t, false
	}
	if maxLen <= int(root) {
		for s, l := range lens {
			if l == 0 {
				continue
			}
			c := next[l]
			next[l]++
			if payload[s] == 0 {
				continue
			}
			e := payload[s] | uint32(l)
			for i := reverse(c, uint(l)); i < 1<<root; i += 1 << l {
				t[i] = e
			}
		}
		return t, true
	}
	// Codes longer than root share subtables by their first root bits.
	// In canonical order those codes come last, grouped by that prefix,
	// each group sorted by length: visit the symbols in that order.
	var start [16]int
	for l := 1; l < maxLen; l++ {
		start[l+1] = start[l] + count[l]
	}
	var order [288]uint16
	for s, l := range lens {
		if l != 0 {
			order[start[l]] = uint16(s)
			start[l]++
		}
	}
	left := count // codes of each length not yet placed
	prefix, sub := -1, 0
	for _, s := range order[:len(lens)-count[0]] {
		l := int(lens[s])
		c := next[l]
		next[l]++
		left[l]--
		rev := reverse(c, uint(l))
		if l <= int(root) {
			if payload[s] != 0 {
				for i := rev; i < 1<<root; i += 1 << l {
					t[i] = payload[s] | uint32(l)
				}
			}
			continue
		}
		if p := rev & (1<<root - 1); p != prefix {
			// A new subtable, wide enough for every code that starts
			// with this prefix (zlib's inflate_table sizing: the code is
			// complete, so the codes left fill it exactly).
			prefix, sub = p, l-int(root)
			room := 1<<sub - left[l] - 1
			for room > 0 && int(root)+sub < maxLen {
				sub++
				room = room<<1 - left[int(root)+sub]
			}
			t[p] = uint32(len(t))<<16 | uint32(sub)<<8 | hSub | uint32(root)
			t = append(t, make([]uint32, 1<<sub)...)
		}
		if payload[s] == 0 {
			continue
		}
		base := int(t[prefix] >> 16)
		e := payload[s] | uint32(l-int(root))
		for i := rev >> root; i < 1<<sub; i += 1 << (l - int(root)) {
			t[base+i] = e
		}
	}
	return t, true
}

// reverse returns the low n bits of c in reverse order.
func reverse(c int, n uint) int {
	return int(bits.Reverse16(uint16(c)) >> (16 - n))
}

// codeOrder is the order of the code-length code's lengths in a dynamic
// block header.
var codeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// bitStream reads a deflate stream's bits: acc holds the next nb of them
// from bit 0 up, loaded from in up to pos. The bits of acc above nb are
// zero or the stream's next bits, so loading a byte twice is harmless.
// Bytes past the end of in read as zero; whether a stream used any is
// checked once it ends.
type bitStream struct {
	in  []byte
	acc uint64
	nb  uint
	pos int
}

// refill tops acc up to at least 56 bits. It reports false once the
// stream runs eight bytes past the end of in.
func (s *bitStream) refill() bool {
	var ok bool
	s.acc, s.nb, s.pos, ok = refill(s.in, s.acc, s.nb, s.pos)
	return ok
}

// take consumes and returns the next n bits, which acc must hold.
func (s *bitStream) take(n uint) uint32 {
	v := uint32(s.acc & (1<<n - 1))
	s.acc >>= n
	s.nb -= n
	return v
}

// refill is bitStream.refill on the stream's state as values, so that the
// decoding loop can keep it in registers.
func refill(in []byte, acc uint64, nb uint, pos int) (uint64, uint, int, bool) {
	if pos+8 <= len(in) {
		acc |= binary.LittleEndian.Uint64(in[pos:]) << nb
		return acc, nb | 56, pos + int(63-nb)>>3, true
	}
	for nb <= 56 {
		if pos < len(in) {
			acc |= uint64(in[pos]) << nb
		} else if pos >= len(in)+8 {
			return acc, nb, pos, false
		}
		pos++
		nb += 8
	}
	return acc, nb, pos, true
}

// inflate decodes the deflate stream at the start of in into out, which it
// must fill exactly, under compress/flate's rules: the same streams are
// accepted, and the same refused. It returns the number of bytes of in the
// stream takes — compress/flate reads no byte past the one holding the
// final block's last bit — and whether the stream decoded to exactly
// len(out) bytes.
func (f *inflater) inflate(in, out []byte) (int, bool) {
	s := bitStream{in: in}
	o := 0 // bytes written to out
	for final := false; !final; {
		if s.nb < 3 && !s.refill() {
			return 0, false
		}
		final = s.take(1) != 0
		var lit, dist []uint32
		switch s.take(2) {
		case 0: // stored: the rest of the current byte is skipped
			pos := s.pos - int(s.nb>>3)
			s.acc, s.nb = 0, 0
			if pos+4 > len(in) {
				return 0, false
			}
			n := int(binary.LittleEndian.Uint16(in[pos:]))
			if uint16(n) != ^binary.LittleEndian.Uint16(in[pos+2:]) || pos+4+n > len(in) || n > len(out)-o {
				return 0, false
			}
			o += copy(out[o:], in[pos+4:pos+4+n])
			s.pos = pos + 4 + n
			continue
		case 1:
			lit, dist = fixedTables()
		case 2:
			if !f.readDynamic(&s) {
				return 0, false
			}
			lit, dist = f.lit, f.dist
		default:
			return 0, false
		}
		var ok bool
		if o, ok = decodeBlock(&s, lit, dist, out, o); !ok {
			return 0, false
		}
	}
	used := s.pos - int(s.nb>>3) // whole bytes, the last one partly read
	if used > len(in) || o != len(out) {
		return 0, false
	}
	return used, true
}

// decodeBlock decodes one Huffman-coded block's symbols into out from o up
// to its end-of-block code and returns the new end of out.
func decodeBlock(s *bitStream, lit, dist []uint32, out []byte, o int) (int, bool) {
	primary := (*[1 << litRoot]uint32)(lit)
	in, acc, nb, pos := s.in, s.acc, s.nb, s.pos
	for {
		// 48 bits cover a length code, its extra bits, a distance code
		// and its extra bits: 15 + 5 + 15 + 13.
		if nb < 48 {
			if pos+8 <= len(in) {
				acc |= binary.LittleEndian.Uint64(in[pos:]) << nb
				pos += int(63-nb) >> 3
				nb |= 56
			} else {
				var ok bool
				if acc, nb, pos, ok = refill(in, acc, nb, pos); !ok {
					return 0, false
				}
			}
		}
		e := primary[acc&(1<<litRoot-1)]
		if e&hSub != 0 {
			acc >>= litRoot
			nb -= litRoot
			e = lit[e>>16+uint32(acc)&(1<<(e>>8&15)-1)]
		}
		n := uint(e & 15)
		acc >>= n
		nb -= n
		if e&hLit != 0 {
			if o >= len(out) {
				return 0, false
			}
			out[o] = byte(e >> 16)
			o++
			continue
		}
		if e&hEOB != 0 {
			s.acc, s.nb, s.pos = acc, nb, pos
			return o, true
		}
		if n == 0 {
			return 0, false
		}
		var ok bool
		if acc, nb, o, ok = copyMatch(e, acc, nb, dist, out, o); !ok {
			return 0, false
		}
	}
}

// copyMatch decodes the rest of a match whose length entry is e — the
// length's extra bits, the distance code and its extra bits, which acc
// holds — and copies it.
func copyMatch(e uint32, acc uint64, nb uint, dist []uint32, out []byte, o int) (uint64, uint, int, bool) {
	extra := uint(e >> 8 & 15)
	length := int(e>>16) + int(acc&(1<<extra-1))
	acc >>= extra
	nb -= extra
	e = (*[1 << distRoot]uint32)(dist)[acc&(1<<distRoot-1)]
	if e&hSub != 0 {
		acc >>= distRoot
		nb -= distRoot
		e = dist[e>>16+uint32(acc)&(1<<(e>>8&15)-1)]
	}
	n := uint(e & 15)
	if n == 0 {
		return 0, 0, 0, false
	}
	extra = uint(e >> 8 & 15)
	d := int(e>>16) + int(acc>>n&(1<<extra-1))
	acc >>= n + extra
	nb -= n + extra
	if d > o || length > len(out)-o {
		return 0, 0, 0, false
	}
	if d >= length {
		copy(out[o:o+length], out[o-d:])
	} else {
		for i := range length {
			out[o+i] = out[o-d+i]
		}
	}
	return acc, nb, o + length, true
}

// readDynamic reads a dynamic block's header and builds its tables.
func (f *inflater) readDynamic(s *bitStream) bool {
	if !s.refill() {
		return false
	}
	nlit, ndist, nclen := 257+int(s.take(5)), 1+int(s.take(5)), 4+int(s.take(4))
	if nlit > 286 || ndist > 30 {
		return false
	}
	var clens [19]uint8
	for _, c := range codeOrder[:nclen] {
		if s.nb < 3 && !s.refill() {
			return false
		}
		clens[c] = uint8(s.take(3))
	}
	if _, ok := buildTable(f.clen[:0], clens[:], clenPayload[:], 7); !ok {
		return false
	}
	lens := f.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		// A code-length code and its repeat count: 7 + 7 bits.
		if s.nb < 14 && !s.refill() {
			return false
		}
		e := f.clen[s.acc&(1<<7-1)]
		if e == 0 {
			return false
		}
		s.take(uint(e & 15))
		sym := uint8(e >> 16)
		if sym < 16 {
			lens[i] = sym
			i++
			continue
		}
		var rep int
		var v uint8
		switch sym {
		case 16:
			if i == 0 {
				return false
			}
			rep, v = 3+int(s.take(2)), lens[i-1]
		case 17:
			rep = 3 + int(s.take(3))
		default:
			rep = 11 + int(s.take(7))
		}
		if i+rep > len(lens) {
			return false
		}
		for ; rep > 0; rep-- {
			lens[i] = v
			i++
		}
	}
	var ok1, ok2 bool
	f.lit, ok1 = buildTable(f.lit, lens[:nlit], litPayload[:], litRoot)
	f.dist, ok2 = buildTable(f.dist, lens[nlit:], distPayload[:], distRoot)
	return ok1 && ok2
}
