package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/tensor"
)

// The frame decoder: one hand-written single pass over the JSON body of
// POST /detect and of every /stream frame, in place of encoding/json's
// reflective decode (which spent more CPU on a 96x96 frame's 27,648 pixel
// floats than four forward passes of the model they feed). It accepts what
// json.Unmarshal into a StreamFrame accepts and fills the fields with the
// same values bit for bit (FuzzDecodeFrame holds it to that), with two
// deliberate tightenings, both refusals of input no valid frame contains:
// nothing but whitespace may follow the object, and width and height that
// precede pixels bind it — the array is refused at its first element past
// 3*width*height instead of being materialised for checkFrame to count.
//
// The pixel array is nearly all of a frame's bytes, and nearly every pixel
// json.Marshal writes is a fraction: "0." and a handful of digits. Those
// take scanFractions — an AVX2 kernel four tokens a step where the CPU has
// one, a Go loop reading eight digits a step otherwise — which stores the
// float32 strconv would; every other spelling takes the per-token
// parsePixel.

// frameKeys are the object keys the decoder stores, matched the way
// encoding/json matches struct fields: under Unicode simple case folding.
// Any other key's value is validated and skipped.
var frameKeys = [...]string{"seq", "width", "height", "pixels", "altitude", "deadline_ms"}

const (
	keySeq = iota
	keyWidth
	keyHeight
	keyPixels
	keyAltitude
	keyDeadline
	keyUnknown
)

// maxFoldedKey bounds a key that can still fold-match a frameKeys entry:
// the longest name plus one byte, since the only non-ASCII rune folding to
// a letter of these names is the two-byte long s (U+017F) and no name has
// two of them.
const maxFoldedKey = len("deadline_ms") + 1

// maxFrameDepth is encoding/json's nesting bound, the frame object
// included; deeper documents are refused rather than recursed into.
const maxFrameDepth = 10000

// maxFramePixels bounds the pixel array while the dimensions are not yet
// known: no valid frame has more.
const maxFramePixels = 3 * maxImageDim * maxImageDim

// errPixelBound marks the refusals that come from binding the pixel array
// to the width and height declared before it.
var errPixelBound = errors.New("array does not fit the width and height declared before it")

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

func frameSyntaxError(buf []byte, i int) error {
	if i >= len(buf) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q at offset %d", buf[i], i)
}

func skipSpace(buf []byte, i int) int {
	for i < len(buf) && (buf[i] == ' ' || buf[i] == '\n' || buf[i] == '\t' || buf[i] == '\r') {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// decodeFrame parses one frame document. On error the returned frame holds
// whatever fields were read before the refusal, so a stream answer can
// still echo the seq. Geometry is the caller's to check (checkFrame).
func decodeFrame(body []byte) (StreamFrame, error) {
	return decodeFrameInto(body, nil)
}

// decodeFrameInto is decodeFrame with the pixel array decoded into spare's
// storage while it is large enough, with the same values: spare's old
// contents never show through.
func decodeFrameInto(body []byte, spare []float32) (StreamFrame, error) {
	f := StreamFrame{Pixels: spare[:0]}
	clean := 0 // pixel slots below this hold a value of this document
	i := skipSpace(body, 0)
	if i == len(body) {
		return f, frameSyntaxError(body, i)
	}
	if body[i] != '{' {
		return f, errors.New("frame must be a JSON object")
	}
	i = skipSpace(body, i+1)
	if i < len(body) && body[i] == '}' {
		return f, frameEnd(body, i+1)
	}
	haveWidth, haveHeight := false, false
	for {
		if i >= len(body) || body[i] != '"' {
			return f, frameSyntaxError(body, i)
		}
		end, escaped, err := scanString(body, i)
		if err != nil {
			return f, err
		}
		key := matchFrameKey(body[i+1:end-1], escaped)
		i = skipSpace(body, end)
		if i >= len(body) || body[i] != ':' {
			return f, frameSyntaxError(body, i)
		}
		i = skipSpace(body, i+1)
		var v int64
		switch key {
		case keyUnknown:
			i, err = skipValue(body, i, 1)
		case keyPixels:
			i, err = f.scanPixels(body, i, haveWidth && haveHeight, &clean)
		case keyAltitude:
			f.Altitude, i, err = scanFloat(body, i, f.Altitude)
		case keyDeadline:
			f.DeadlineMs, i, err = scanInt(body, i, 64, f.DeadlineMs)
		case keySeq:
			v, i, err = scanInt(body, i, strconv.IntSize, int64(f.Seq))
			f.Seq = int(v)
		case keyWidth:
			v, i, err = scanInt(body, i, strconv.IntSize, int64(f.Width))
			f.Width, haveWidth = int(v), true
		case keyHeight:
			v, i, err = scanInt(body, i, strconv.IntSize, int64(f.Height))
			f.Height, haveHeight = int(v), true
		}
		if err != nil {
			if key != keyUnknown {
				err = fmt.Errorf("%s: %w", frameKeys[key], err)
			}
			return f, err
		}
		i = skipSpace(body, i)
		if i < len(body) && body[i] == '}' {
			return f, frameEnd(body, i+1)
		}
		if i >= len(body) || body[i] != ',' {
			return f, frameSyntaxError(body, i)
		}
		i = skipSpace(body, i+1)
	}
}

// frameEnd refuses anything but whitespace from buf[i], just past the frame
// object's closing brace, on.
func frameEnd(buf []byte, i int) error {
	if i = skipSpace(buf, i); i != len(buf) {
		return fmt.Errorf("invalid character %q after the frame object at offset %d", buf[i], i)
	}
	return nil
}

// matchFrameKey maps a key's bytes (between the quotes; escaped says a
// backslash occurs) to its frameKeys index, or keyUnknown.
func matchFrameKey(raw []byte, escaped bool) int {
	var tmp [maxFoldedKey + utf8.UTFMax]byte
	if escaped {
		var ok bool
		if raw, ok = unescapeKey(tmp[:0], raw); !ok {
			return keyUnknown
		}
	}
	if len(raw) > maxFoldedKey {
		return keyUnknown
	}
	for k, name := range frameKeys {
		if strings.EqualFold(string(raw), name) {
			return k
		}
	}
	return keyUnknown
}

// unescapeKey expands the \uXXXX escapes of an already validated key into
// dst, giving up (false) once the key cannot match a frameKeys entry: on
// any other escape — none stands for a letter or '_' — on a surrogate, or
// when dst is full.
func unescapeKey(dst, raw []byte) ([]byte, bool) {
	for i := 0; i < len(raw); {
		if len(dst)+utf8.UTFMax > cap(dst) {
			return nil, false
		}
		if raw[i] != '\\' {
			dst = append(dst, raw[i])
			i++
			continue
		}
		if raw[i+1] != 'u' {
			return nil, false
		}
		r, err := strconv.ParseUint(string(raw[i+2:i+6]), 16, 32)
		if err != nil || utf8.RuneLen(rune(r)) < 0 {
			return nil, false
		}
		dst = utf8.AppendRune(dst, rune(r))
		i += 6
	}
	return dst, true
}

// scanString validates the JSON string whose opening quote is at buf[i]
// and returns the index just past its closing quote, and whether it holds
// an escape. Like encoding/json it does not require valid UTF-8.
func scanString(buf []byte, i int) (end int, escaped bool, err error) {
	for i++; i < len(buf); i++ {
		switch c := buf[i]; {
		case c == '"':
			return i + 1, escaped, nil
		case c == '\\':
			escaped = true
			i++
			if i >= len(buf) {
				return 0, false, frameSyntaxError(buf, i)
			}
			switch buf[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 1; k <= 4; k++ {
					if i+k >= len(buf) || !isHex(buf[i+k]) {
						return 0, false, frameSyntaxError(buf, i+k)
					}
				}
				i += 4
			default:
				return 0, false, frameSyntaxError(buf, i)
			}
		case c < 0x20:
			return 0, false, frameSyntaxError(buf, i)
		}
	}
	return 0, false, frameSyntaxError(buf, i)
}

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// scanLiteral matches lit (true, false or null) at buf[i].
func scanLiteral(buf []byte, i int, lit string) (int, error) {
	for k := 0; k < len(lit); k++ {
		if i+k >= len(buf) || buf[i+k] != lit[k] {
			return 0, frameSyntaxError(buf, i+k)
		}
	}
	return i + len(lit), nil
}

// scanNumber validates the JSON number starting at buf[i] and returns the
// index just past it (the caller checks what follows), and its magnitude as
// mant×10^exp10 for parsePixel. At most 19 significant digits fit in mant;
// exact reports that none was left out, and only then do mant and exp10
// mean anything.
func scanNumber(buf []byte, i int) (end int, mant uint64, exp10 int, exact bool, err error) {
	if i < len(buf) && buf[i] == '-' {
		i++
	}
	digits := 0
	exact = true
	switch {
	case i < len(buf) && buf[i] == '0':
		i++
	case i < len(buf) && isDigit(buf[i]):
		for ; i < len(buf) && isDigit(buf[i]); i++ {
			if digits < 19 {
				mant = mant*10 + uint64(buf[i]-'0')
				digits++
			} else {
				exact = false
			}
		}
	default:
		return 0, 0, 0, false, frameSyntaxError(buf, i)
	}
	if i < len(buf) && buf[i] == '.' {
		i++
		if i >= len(buf) || !isDigit(buf[i]) {
			return 0, 0, 0, false, frameSyntaxError(buf, i)
		}
		for ; i < len(buf) && isDigit(buf[i]); i++ {
			if digits < 19 {
				mant = mant*10 + uint64(buf[i]-'0')
				exp10--
				if mant != 0 { // zeros leading the fraction of 0.000123 are not significant
					digits++
				}
			} else {
				exact = false
			}
		}
	}
	if i < len(buf) && (buf[i] == 'e' || buf[i] == 'E') {
		i++
		negative := false
		if i < len(buf) && (buf[i] == '+' || buf[i] == '-') {
			negative = buf[i] == '-'
			i++
		}
		if i >= len(buf) || !isDigit(buf[i]) {
			return 0, 0, 0, false, frameSyntaxError(buf, i)
		}
		e := 0
		for ; i < len(buf) && isDigit(buf[i]); i++ {
			if e < 10000 { // far past any float's range already: keep e an int
				e = e*10 + int(buf[i]-'0')
			}
		}
		if negative {
			e = -e
		}
		exp10 += e
	}
	return i, mant, exp10, exact, nil
}

// scanNumberOrNull scans the value of a numeric field at buf[i]: a number
// (ok, for the caller to convert) or null, which like encoding/json leaves
// the field as it was. Any other value is refused.
func scanNumberOrNull(buf []byte, i int) (end int, ok bool, err error) {
	switch {
	case i >= len(buf):
		return 0, false, frameSyntaxError(buf, i)
	case buf[i] == 'n':
		end, err = scanLiteral(buf, i, "null")
		return end, false, err
	case buf[i] == '-' || isDigit(buf[i]):
		end, _, _, _, err = scanNumber(buf, i)
		return end, err == nil, err
	}
	return 0, false, fmt.Errorf("want a number, got %q at offset %d", buf[i], i)
}

// scanInt reads an integer field of the given width; old is what null
// leaves in place.
func scanInt(buf []byte, i, bits int, old int64) (int64, int, error) {
	end, ok, err := scanNumberOrNull(buf, i)
	if !ok {
		return old, end, err
	}
	v, err := strconv.ParseInt(string(buf[i:end]), 10, bits)
	if err != nil {
		return old, end, fmt.Errorf("%s is not an integer of %d bits", buf[i:end], bits)
	}
	return v, end, nil
}

// scanFloat is scanInt for a float64 field.
func scanFloat(buf []byte, i int, old float64) (float64, int, error) {
	end, ok, err := scanNumberOrNull(buf, i)
	if !ok {
		return old, end, err
	}
	v, err := strconv.ParseFloat(string(buf[i:end]), 64)
	if err != nil {
		return old, end, fmt.Errorf("%s is outside the float64 range", buf[i:end])
	}
	return v, end, nil
}

// skipValue validates one JSON value of any type at buf[i], nested inside
// depth containers, and returns the index just past it.
func skipValue(buf []byte, i, depth int) (int, error) {
	if i >= len(buf) {
		return 0, frameSyntaxError(buf, i)
	}
	switch c := buf[i]; {
	case c == '"':
		end, _, err := scanString(buf, i)
		return end, err
	case c == 't':
		return scanLiteral(buf, i, "true")
	case c == 'f':
		return scanLiteral(buf, i, "false")
	case c == 'n':
		return scanLiteral(buf, i, "null")
	case c == '-' || isDigit(c):
		end, _, _, _, err := scanNumber(buf, i)
		return end, err
	case c != '{' && c != '[':
		return 0, frameSyntaxError(buf, i)
	}
	if depth >= maxFrameDepth {
		return 0, fmt.Errorf("frame nests deeper than %d at offset %d", maxFrameDepth, i)
	}
	object, closer := buf[i] == '{', buf[i]+2 // '}' is '{'+2 and ']' is '['+2
	i = skipSpace(buf, i+1)
	if i < len(buf) && buf[i] == closer {
		return i + 1, nil
	}
	for {
		if object {
			if i >= len(buf) || buf[i] != '"' {
				return 0, frameSyntaxError(buf, i)
			}
			end, _, err := scanString(buf, i)
			if err != nil {
				return 0, err
			}
			i = skipSpace(buf, end)
			if i >= len(buf) || buf[i] != ':' {
				return 0, frameSyntaxError(buf, i)
			}
			i = skipSpace(buf, i+1)
		}
		var err error
		if i, err = skipValue(buf, i, depth+1); err != nil {
			return 0, err
		}
		i = skipSpace(buf, i)
		if i < len(buf) && buf[i] == closer {
			return i + 1, nil
		}
		if i >= len(buf) || buf[i] != ',' {
			return 0, frameSyntaxError(buf, i)
		}
		i = skipSpace(buf, i+1)
	}
}

// scanPixels parses the value of a pixels key at buf[i] — an array of
// numbers, or null — into f.Pixels and returns the index just past it.
// With dims (width and height came first) they are checked here, the slice
// is allocated once at 3*width*height and the array is refused at its first
// element beyond that; otherwise the slice grows, up to maxFramePixels.
// encoding/json decodes a repeated key over the slice the previous one
// left, and a null element leaves its slot as it was; both are kept, so a
// second array sees the first one's values where it says null. A null for
// the whole array drops the slice. Slots from *clean on have held no value
// of this document — they may be a reused buffer's — so a null element
// there stores the zero a fresh slice would hold.
func (f *StreamFrame) scanPixels(buf []byte, i int, dims bool, clean *int) (int, error) {
	if i < len(buf) && buf[i] == 'n' {
		f.Pixels = nil
		return scanLiteral(buf, i, "null")
	}
	if i >= len(buf) {
		return 0, frameSyntaxError(buf, i)
	}
	if buf[i] != '[' {
		return 0, fmt.Errorf("want an array, got %q at offset %d", buf[i], i)
	}
	limit := maxFramePixels
	pix := f.Pixels[:cap(f.Pixels)]
	if dims {
		if err := checkDims(f.Width, f.Height); err != nil {
			return 0, fmt.Errorf("%w: %v", errPixelBound, err)
		}
		limit = 3 * f.Width * f.Height
		// An element takes two bytes of body at the least, so a short body
		// declaring a large frame does not get the large allocation.
		if room := min(limit, (len(buf)-i)/2); len(pix) < room {
			grown := make([]float32, room)
			copy(grown, pix)
			pix = grown
		}
	}
	n := 0
	i = skipSpace(buf, i+1)
	if i < len(buf) && buf[i] == ']' {
		f.Pixels = pix[:0]
		return i + 1, nil
	}
	for {
		n, i = scanFractions(buf, i, pix[:min(len(pix), limit)], n)
		if i < len(buf) && buf[i] <= ' ' {
			i = skipSpace(buf, i)
		}
		if n == limit {
			if dims {
				return 0, fmt.Errorf("%w: more than 3*%d*%d elements", errPixelBound, f.Width, f.Height)
			}
			return 0, fmt.Errorf("more than %d elements", limit)
		}
		if n == len(pix) {
			grown := make([]float32, min(max(2*n, 4096), limit))
			copy(grown, pix)
			pix = grown
		}
		var err error
		switch {
		case i >= len(buf):
			return 0, frameSyntaxError(buf, i)
		case buf[i] == '-' || isDigit(buf[i]):
			pix[n], i, err = parsePixel(buf, i)
		case buf[i] == 'n':
			if n >= *clean {
				pix[n] = 0
			}
			i, err = scanLiteral(buf, i, "null")
		default:
			err = fmt.Errorf("element %d: want a number, got %q at offset %d", n, buf[i], i)
		}
		if err != nil {
			return 0, err
		}
		n++
		// json.Marshal puts no space around the commas: look before skipping.
		if i < len(buf) && buf[i] != ',' {
			i = skipSpace(buf, i)
		}
		if i < len(buf) && buf[i] == ']' {
			f.Pixels = pix[:n]
			*clean = max(*clean, n)
			return i + 1, nil
		}
		if i >= len(buf) || buf[i] != ',' {
			return 0, frameSyntaxError(buf, i)
		}
		i++
		if i < len(buf) && buf[i] <= ' ' {
			i = skipSpace(buf, i)
		}
	}
}

// parsePixel parses the JSON number at buf[i] to the float32
// strconv.ParseFloat(token, 32) returns — what encoding/json stores — and
// the index just past it. A token of at most 19 significant digits whose
// decimal mantissa is below 2^53 and whose decimal exponent is within ±22
// becomes, in one correctly rounded multiply or divide, the float64
// nearest the decimal. Narrowing that to float32 rounds a second time,
// which agrees with rounding the decimal once unless the float64 sits
// exactly halfway between two float32s (the decimal may lie on either side
// of it), so those, values outside the normal float32 range, and every
// other token go to strconv.
func parsePixel(buf []byte, i int) (float32, int, error) {
	end, mant, exp10, exact, err := scanNumber(buf, i)
	if err != nil {
		return 0, 0, err
	}
	if exact && mant < 1<<53 && -22 <= exp10 && exp10 <= 22 {
		v := float64(mant)
		if exp10 < 0 {
			v /= pow10[-exp10]
		} else {
			v *= pow10[exp10]
		}
		if mant == 0 || v >= 0x1p-126 && v <= math.MaxFloat32 && math.Float64bits(v)&dropped != midpoint {
			if buf[i] == '-' {
				v = -v
			}
			return float32(v), end, nil
		}
	}
	v, err := strconv.ParseFloat(string(buf[i:end]), 32)
	if err != nil {
		return 0, 0, fmt.Errorf("%s at offset %d is outside the float32 range", buf[i:end], i)
	}
	return float32(v), end, nil
}

// fractionRun is the span of body scanFractions reads for one token: "0.",
// sixteen bytes holding up to fifteen digits and the comma after them.
const fractionRun = 2 + 16

// scanFractions is scanPixels' inner loop. It converts the run of elements
// at buf[i] that are spelled the way json.Marshal spells every float32 in
// [1e-6, 1) — "0.", one to fifteen digits, then the comma before the next
// element — into pix[n:], and returns the new n and the index of the first
// element it did not take. The selected kernel family's fractions kernel
// (tensor.FractionsKernel) takes four elements a step while it can; the
// group it declines, the tail and every element on a family without one
// take fractionsSWAR, whose rules the kernel copies, so the kernel changes
// the speed and never the result.
func scanFractions(buf []byte, i int, pix []float32, n int) (int, int) {
	kernel := tensor.FractionsKernel()
	if kernel == nil {
		return fractionsSWAR(buf, i, pix, n)
	}
	for {
		dn, di := kernel(buf[i:], pix[n:])
		n, i = n+dn, i+di
		stop := min(n+4, len(pix))
		if n, i = fractionsSWAR(buf, i, pix[:stop], n); n < stop || n == len(pix) {
			return n, i
		}
	}
}

// fractionsSWAR is scanFractions in Go. The digits are classified and
// converted eight at a time in two little-endian words (Lemire, "Number
// Parsing at a Gigabyte per Second", 2021), giving exactly the mantissa and
// exponent scanNumber would. An element it does not take stops the run and
// goes to parsePixel: a sign, an exponent, sixteen or more digits, no digit
// at all, whitespace, ']' or anything else after the digits, fewer than
// fractionRun bytes left, or a decimal within a few float64 ulps of a
// float32 rounding midpoint (see below). So the value stored is always
// strconv.ParseFloat(token, 32)'s.
func fractionsSWAR(buf []byte, i int, pix []float32, n int) (int, int) {
	for ; n < len(pix) && i <= len(buf)-fractionRun; n++ {
		b := buf[i : i+fractionRun]
		if binary.LittleEndian.Uint16(b) != '0'|'.'<<8 {
			break
		}
		lo := binary.LittleEndian.Uint64(b[2:]) ^ asciiZeros
		hi := binary.LittleEndian.Uint64(b[10:]) ^ asciiZeros
		// d, the digit count, is the byte index of the first non-digit: in
		// lo, or past lo's eight digits in hi (tlo>>6 is 1 only when lo has
		// no non-digit). 0 and 16 are refusals.
		tlo, thi := bits.TrailingZeros64(nonDigits(lo)), bits.TrailingZeros64(nonDigits(hi))
		d := tlo>>3 + tlo>>6*(thi>>3)
		if uint(d-1) >= 15 || b[2+d] != ',' {
			break
		}
		// Shifting out the bytes past the digits leaves zeros in front of
		// them; the &63s only tell the compiler the counts stay below 64.
		var mant uint64
		if d <= 8 {
			mant = eightDigits(lo << ((64 - 8*d) & 63))
		} else {
			mant = eightDigits(lo)*pow10u[(d-8)&7] + eightDigits(hi<<((128-8*d)&63))
		}
		// mant is exact in a float64 (it is below 10^15 < 2^53); 10^-d and
		// the product are each rounded once, so v is within 2^-52 of the
		// decimal relative to it, under 2.0001 ulps of v. A float32 rounding
		// midpoint more than midSlack ulps from v therefore cannot lie
		// between v and the decimal, and narrowing rounds both to the same
		// float32. A v nearer a midpoint stops the run: parsePixel's
		// correctly rounded divide takes the token.
		v := float64(mant) * negPow10[d&15]
		if math.Float64bits(v)&dropped-(midpoint-midSlack) <= 2*midSlack {
			break
		}
		pix[n] = float32(v)
		i += 3 + d
	}
	return n, i
}

// The float64 mantissa bits a float32 has no room for, their pattern at a
// float32 rounding midpoint, and how many float64 ulps from one a product
// of scanFractions must stay.
const (
	dropped  = 1<<29 - 1
	midpoint = 1 << 28
	midSlack = 8
)

// negPow10[d] is the float64 nearest 10^-d.
var negPow10 = [...]float64{
	1e-0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14, 1e-15,
}

// pow10u holds the powers of ten below 10^8.
var pow10u = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7}

// asciiZeros is '0' in every byte: XORed into a word of ASCII digits it
// leaves each digit's value in its byte.
const asciiZeros = 0x3030303030303030

// nonDigits takes a word of body bytes XORed with asciiZeros and returns
// it with the top bit set in every byte that was not an ASCII digit — the
// bytes that are not 0–9 after the XOR — and every other bit clear. The
// low seven bits of each byte plus 0x76 cannot carry out of the byte.
func nonDigits(x uint64) uint64 {
	return ((x&0x7f7f7f7f7f7f7f7f + 0x7676767676767676) | x) & 0x8080808080808080
}

// eightDigits is the value of the eight decimal digits held one per byte,
// the most significant in the lowest byte, as nonDigits' XOR leaves them:
// pairs, then quadruples, are combined by multiplies that keep each partial
// sum inside its own byte or 32-bit half. A word shifted left by 8*(8-k)
// bits holds k digits behind zeros and converts to their value.
func eightDigits(x uint64) uint64 {
	x = x*10 + x>>8
	return ((x&0x000000ff000000ff)*(100+1000000<<32) + (x>>16&0x000000ff000000ff)*(1+10000<<32)) >> 32
}
