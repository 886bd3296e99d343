package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

// frameSeeds are the stream-frame bodies FuzzDecodeStreamFrame and
// FuzzDecodeFrame start from: the TestStreamBadFramesInBand bodies, then
// the number spellings, field values and key spellings on which a
// hand-written decoder is most likely to part from encoding/json.
var frameSeeds = func() []string {
	seeds := []string{
		"{not json",
		`{"seq":7,"width":8,"height":8,"pixels":[0,0,0,0,0]}`,
		`{"seq":9,"width":1,"height":1,"pixels":[0,0,0],"deadline_ms":9223372036855}`,
		`{"seq":10,"width":1,"height":1,"pixels":[0,0,0],"deadline_ms":-5}`,
		`{"seq":8,"width":1,"height":1,"pixels":[0.5,0.25,1],"altitude":120,"deadline_ms":40}`,
		`{"width":4294967296,"height":4294967296,"pixels":[]}`,
		``, `null`, `[]`, `{}`, ` { } `, `{"width":1,}`, `{"width":1 "height":1}`,
		// Trailing data: whitespace is fine, anything else is not.
		"{\"width\":1,\"height\":1,\"pixels\":[0,0,0]} \n\t\r",
		`{"width":1,"height":1,"pixels":[0,0,0]} x`,
		`{"width":1,"height":1,"pixels":[0,0,0]}{"width":1,"height":1,"pixels":[0,0,0]}`,
		// The pixel array against the dimensions, declared before and after.
		`{"seq":3,"width":1,"height":1,"pixels":[0,0,0,0]}`,
		`{"pixels":[0,0,0,0],"width":1,"height":1}`,
		`{"pixels":[1,2,3],"height":1,"width":1}`,
		`{"width":0,"height":4,"pixels":[]}`,
		`{"width":2048,"height":2048,"pixels":[]}`,
		`{"width":1,"height":1,"pixels":[1,2,3,4,5,6],"width":2}`,
		`{"width":0,"height":1,"pixels":[1,2,3],"width":1}`,
		// Duplicate keys, and null against what an earlier key left.
		`{"seq":1,"seq":2,"width":1,"width":1,"height":1,"pixels":[9,9,9],"pixels":[1,2,3]}`,
		`{"width":1,"height":1,"pixels":[1,2,3],"pixels":[null,5,null]}`,
		`{"pixels":[1,2,3],"pixels":[9],"pixels":[null,null,null],"width":1,"height":1}`,
		`{"width":1,"height":1,"pixels":[1,2,3],"pixels":null,"width":null,"seq":4,"seq":null}`,
		`{"seq":null,"width":null,"height":null,"pixels":null,"altitude":null,"deadline_ms":null}`,
		`{"width":1,"height":1,"pixels":[null,null,null]}`,
		// Key spellings: an escape for the t of width, mixed case, the long s
		// and Kelvin sign of Unicode case folding, near misses.
		`{"wid\u0074h":1,"height":1,"pixels":[0,0,0]}`,
		`{"Width":1,"HEIGHT":1,"PiXeLs":[0,0,0],"Deadline_MS":5,"SEQ":2,"aLTITUDE":3}`,
		"{\"\u017feq\":5,\"width\":1,\"height\":1,\"pixel\u017f\":[0,0,0]}",
		`{"\u017Feq":5,"width":1,"height":1,"pixels":[0,0,0]}`,
		`{"wi\u0064th":1,"h\u0065ight":1,"pixels":[0,0,0],"\ud83d\ude00":1,"\udead":2,"a\nb":3,"\/":4}`,
		"{\"width\xff\":7,\"width\":1,\"height\":1,\"pixels\":[0,0,0]}",
		`{"widthh":7,"wid th":7,"":7,"deadline-ms":7,"width":1,"height":1,"pixels":[0,0,0]}`,
		// Wrong types for known keys, unknown keys of every type.
		`{"width":"1","height":1,"pixels":[0,0,0]}`,
		`{"width":1.0,"height":1,"pixels":[0,0,0]}`,
		`{"width":1e0,"height":1,"pixels":[0,0,0]}`,
		`{"width":-0,"height":1,"pixels":[]}`,
		`{"width":true,"height":1,"pixels":[0,0,0]}`,
		`{"width":1,"height":1,"pixels":{"0":0}}`,
		`{"width":1,"height":1,"pixels":[0,"0",0]}`,
		`{"width":1,"height":1,"pixels":[0,[0],0]}`,
		`{"width":1,"height":1,"pixels":[0,0,0,]}`,
		`{"width":1,"height":1,"pixels":[0,0,0],"seq":9223372036854775808}`,
		`{"width":1,"height":1,"pixels":[0,0,0],"altitude":1e999}`,
		`{"width":1,"height":1,"pixels":[0,0,0],"altitude":-1.5e-3,"seq":-7}`,
		`{"x":{"a":[1,{"b":null},"s\"\\\/\b\f\n\r\t\u12aF"],"c":{}},"y":[[],[[]]],"z":tru,"width":1}`,
		`{"x":{"a":[1,{"b":null},"s\"\\\/\b\f\n\r\t\u12aF"],"c":{}},"y":[[],[[]]],"z":false,"width":1,"height":1,"pixels":[1,0,1]}`,
		`{"x":"bad \x escape","width":1,"height":1,"pixels":[0,0,0]}`,
		"{\"x\":\"raw\ttab\",\"width\":1,\"height\":1,\"pixels\":[0,0,0]}",
		`{"x":"\u12g4","width":1,"height":1,"pixels":[0,0,0]}`,
		" {\n\t\"width\" : 1 ,\r\n \"height\":1, \"pixels\" : [ 0 , 1e0 ,\n2 ] } ",
	}
	// One pixel spelling per seed, in a frame that is valid if the number is.
	for _, px := range []string{
		"-0", "0", "0.0", "-0.0e5", "1e39", "-1e39", "3.4028235e38", "3.4028236e38", "1E-46", "1e-45", "1.17549435e-38",
		"0.1e1", "1E+2", "1e-2", "01", "1.", ".5", "+1", "-", "1e", "1e+", "NaN", "Infinity", "0x10", "1_0",
		"0.123456789", "0.00390625", "0.99999994", "1.00000001", "123456789", "0.000012345678",
		"1.2345678901234567890123456", "0.1000000000000000055511151231257827",
		"16777217", "16777217.0000001", "922337258661059e4", "9007199254740993", "1e22", "1e23", "1e-22", "1e-23",
		"0.000000000000000000000000000000000000000000001", "100000000000000000000000000000000000000",
	} {
		seeds = append(seeds, fmt.Sprintf(`{"width":1,"height":1,"pixels":[%s,0.5,%s]}`, px, px))
	}
	return append(seeds, fractionEdgeFrames()...)
}()

// fractionEdgeTokens are pixel spellings at the edges of scanFractions'
// fast loop: digit runs on either side of its word boundary and of its
// fifteen-digit limit, zeros, an exponent or a sign after "0.", and
// fifteen-digit decimals whose nearest float64 is a float32 rounding
// midpoint (midpointFractions).
var fractionEdgeTokens = append([]string{
	"0.5", "0.1234567", "0.12345678", "0.123456789", "0.123456789012345", "0.1234567890123456", "0.12345678901234567",
	"0.0", "0.000000000000001", "0.5e3", "0.5E-40", "-0.5",
}, midpointFractions(6)...)

// midpointFractions returns k tokens of "0." and fifteen digits whose
// nearest float64 is exactly halfway between two float32s while the
// decimal itself lies on the side away from the even one: narrowing the
// float64 rounds them the wrong way, so only a midpoint guard gets them
// right.
func midpointFractions(k int) []string {
	rng := rand.New(rand.NewSource(4))
	var toks []string
	for len(toks) < k {
		lo := 0.5 + 0.5*rng.Float32()
		hi := math.Nextafter32(lo, 1)
		mid := (float64(lo) + float64(hi)) / 2
		tok := strconv.FormatFloat(mid, 'f', 15, 64)
		if v, _ := strconv.ParseFloat(tok, 64); v != mid {
			continue
		}
		if want, _ := strconv.ParseFloat(tok, 32); float32(want) != float32(mid) {
			toks = append(toks, tok)
		}
	}
	return toks
}

// fractionEdgeFrames spells fractionEdgeTokens the ways a body can put them
// in front of scanFractions: back to back as json.Marshal writes them, with
// whitespace around the commas, each one last before ']' and within
// fractionRun bytes of the body's end, before a '}' that should have been a
// ']', beside the malformed fractions "0.," and "0.x", and inside a run of
// fractions long enough for the fractions kernel, at each of a group's four
// slots in turn.
func fractionEdgeFrames() []string {
	toks := fractionEdgeTokens
	frame := func(pixels string, n int) string {
		return fmt.Sprintf(`{"width":%d,"height":1,"pixels":[%s]}`, n, pixels)
	}
	all := strings.Repeat(strings.Join(toks, ",")+",", 3)
	frames := []string{
		frame(all[:len(all)-1], len(toks)),
		frame(strings.Join(toks, " , ")+" , "+strings.Join(toks, " , ")+","+strings.Join(toks, "\n,\t"), len(toks)),
		`{"width":1,"height":1,"pixels":[0.,0.5,0.5]}`,
		`{"width":1,"height":1,"pixels":[0.5,0.x,0.5]}`,
		`{"width":1,"height":1,"pixels":[0.5,0.5,0.]}`,
		`{"width":2,"height":1,"pixels":[0.125,0.25,0.375,0.5,0.625,0.75]}`,
	}
	for _, tok := range toks {
		frames = append(frames,
			frame("0.25,"+tok+","+tok, 1),
			frame(tok+" ,0.25,"+tok+"\t", 1),
			`{"width":1,"height":1,"pixels":[0.25,0.25,`+tok+`}`,
			`{"width":1,"height":1,"pixels":[0.25,0.25,`+tok)
	}
	for k, tok := range toks {
		before, after := 16+k%4, 16
		for (before+1+after)%3 != 0 {
			after++
		}
		frames = append(frames, frame(strings.Repeat("0.25,", before)+tok+strings.Repeat(",0.5", after), (before+1+after)/3))
	}
	return frames
}

// forEachKernel runs fn once under every registered kernel family.
func forEachKernel(t *testing.T, fn func(t *testing.T)) {
	t.Cleanup(func() {
		if err := tensor.SelectKernel(""); err != nil {
			t.Fatal(err)
		}
	})
	for _, name := range tensor.AvailableKernels() {
		if err := tensor.SelectKernel(name); err != nil {
			t.Fatal(err)
		}
		t.Run(name, fn)
	}
}

// dimsRepeat reports whether a width or height key occurs more than once
// in raw (null values included) — the one shape of document on which
// decodeFrame is allowed to refuse what the reference accepts.
func dimsRepeat(raw []byte) bool {
	var probe struct{ Width, Height keyCount }
	_ = json.Unmarshal(raw, &probe)
	return probe.Width > 1 || probe.Height > 1
}

type keyCount int

func (k *keyCount) UnmarshalJSON([]byte) error { *k++; return nil }

// checkAgainstEncodingJSON holds decodeFrame + checkFrame to json.Unmarshal
// into a StreamFrame + checkFrame: the same accept or reject, and on accept
// every field equal, the floats bit for bit. The early pixel-bound refusal
// is a reject the reference reaches late, through checkFrame's count — with
// one exception, allowed below: a repeated width or height AFTER the array
// may make the reference's count come out right in the end.
func checkAgainstEncodingJSON(t *testing.T, raw []byte) {
	t.Helper()
	got, gerr := decodeFrame(raw)
	if gerr == nil {
		gerr = checkFrame(got.Width, got.Height, len(got.Pixels), got.DeadlineMs)
	}
	var want StreamFrame
	werr := json.Unmarshal(raw, &want)
	if werr == nil {
		werr = checkFrame(want.Width, want.Height, len(want.Pixels), want.DeadlineMs)
	}
	if (gerr == nil) != (werr == nil) {
		if errors.Is(gerr, errPixelBound) && dimsRepeat(raw) {
			return
		}
		t.Fatalf("%q:\n  decodeFrame:   %v\n  encoding/json: %v", raw, gerr, werr)
	}
	if gerr != nil {
		return
	}
	if got.Seq != want.Seq || got.Width != want.Width || got.Height != want.Height || got.DeadlineMs != want.DeadlineMs ||
		math.Float64bits(got.Altitude) != math.Float64bits(want.Altitude) {
		t.Fatalf("%q:\n  decodeFrame:   %+v\n  encoding/json: %+v", raw, got, want)
	}
	for i := range want.Pixels {
		if math.Float32bits(got.Pixels[i]) != math.Float32bits(want.Pixels[i]) {
			t.Fatalf("%q: pixel %d = %v (%#x), encoding/json has %v (%#x)", raw, i,
				got.Pixels[i], math.Float32bits(got.Pixels[i]), want.Pixels[i], math.Float32bits(want.Pixels[i]))
		}
	}
}

// FuzzDecodeFrame is the differential that lets the hand-written decoder
// stand in for encoding/json: see checkAgainstEncodingJSON.
func FuzzDecodeFrame(f *testing.F) {
	for _, s := range frameSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkAgainstEncodingJSON)
}

// TestDecodeFrameMatchesEncodingJSON is the named contract "frame decode ≡
// encoding/json, bit for bit", under every kernel family: the fuzz seeds,
// the nesting bound on either side of encoding/json's, and whole frames of
// json.Marshal-ed float32s drawn over every exponent plus the [0,1] pixel
// range.
func TestDecodeFrameMatchesEncodingJSON(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		for _, s := range frameSeeds {
			checkAgainstEncodingJSON(t, []byte(s))
		}
		for _, depth := range []int{maxFrameDepth - 2, maxFrameDepth - 1, maxFrameDepth} {
			raw := `{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `,"width":1,"height":1,"pixels":[0,0,0]}`
			checkAgainstEncodingJSON(t, []byte(raw))
		}
		rng := rand.New(rand.NewSource(1))
		const side = 100 // 30,000 floats a frame
		for round := 0; round < 10; round++ {
			f := StreamFrame{Seq: round, Width: side, Height: side, Pixels: make([]float32, 3*side*side), Altitude: rng.NormFloat64() * 100}
			for i := range f.Pixels {
				switch v := math.Float32frombits(rng.Uint32()); {
				case i%2 == 0:
					f.Pixels[i] = rng.Float32()
				case v == v && !math.IsInf(float64(v), 0):
					f.Pixels[i] = v
				}
			}
			raw, err := json.Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstEncodingJSON(t, raw)
		}
	})
}

// checkFractionsMatchSWAR holds scanFractions — the selected family's
// fractions kernel, then fractionsSWAR — to fractionsSWAR alone with limit
// slots: the same count, the same end index, the pixels bit for bit. It
// reads the run at buf[0], then on from where each read stopped: at once
// when the slots ran out, else past the element it stopped at, as
// scanPixels goes on after handing that element to parsePixel.
func checkFractionsMatchSWAR(t *testing.T, buf []byte, limit int) {
	t.Helper()
	got, want := make([]float32, limit), make([]float32, limit)
	for i := 0; i < len(buf); {
		gn, gi := scanFractions(buf, i, got, 0)
		wn, wi := fractionsSWAR(buf, i, want, 0)
		if gn != wn || gi != wi {
			t.Fatalf("%q from %d, %d slots: scanFractions took %d ending at %d, fractionsSWAR %d ending at %d", buf, i, limit, gn, gi, wn, wi)
		}
		for k := range wn {
			if math.Float32bits(got[k]) != math.Float32bits(want[k]) {
				t.Fatalf("%q from %d, %d slots: pixel %d = %v (%#x), fractionsSWAR has %v (%#x)", buf, i, limit, k,
					got[k], math.Float32bits(got[k]), want[k], math.Float32bits(want[k]))
			}
		}
		if wn == limit && limit > 0 {
			i = wi
			continue
		}
		comma := bytes.IndexByte(buf[wi:], ',')
		if comma < 0 {
			return
		}
		i = wi + comma + 1
	}
}

// fractionRuns are the bodies TestFractionsKernelMatchesSWAR and
// FuzzScanFractions start from, each read from its first byte: the pixel
// arrays of both 96² bench bodies; every fractionEdgeTokens entry at each
// of a group's four slots of a run longer than the kernel's window; digit
// runs of one to seventeen digits; "0.," and "0.x"; the fourth comma of a
// group on either side of the 64-byte window's last byte; and random runs
// of tokens of every digit count with an occasional malformed one.
func fractionRuns(tb testing.TB) [][]byte {
	var runs [][]byte
	for _, body := range [][]byte{testFrameBody(tb, 96), cameraFrameBody(tb, 96)} {
		runs = append(runs, body[bytes.IndexByte(body, '[')+1:])
	}
	filler := strings.Repeat("0.25,", 24)
	for _, tok := range append(fractionEdgeTokens, "0.", "0.x", "0.5x", "1", "0") {
		for slot := 0; slot < 4; slot++ {
			runs = append(runs, []byte(filler[:5*slot]+tok+","+filler))
			runs = append(runs, []byte(filler[:5*(4+slot)]+tok+","+filler))
		}
	}
	rng := rand.New(rand.NewSource(5))
	digits := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('0' + rng.Intn(10))
		}
		return string(b)
	}
	for d := 1; d <= 17; d++ {
		var sb strings.Builder
		for sb.Len() < 200 {
			sb.WriteString("0." + digits(d) + ",")
		}
		runs = append(runs, []byte(sb.String()))
	}
	// Four tokens of 13, 13, 13 and 13+extra digits put the group's fourth
	// comma at byte 63+extra.
	for extra := -1; extra <= 1; extra++ {
		group := "0." + digits(13) + ",0." + digits(13) + ",0." + digits(13) + ",0." + digits(13+extra) + ","
		runs = append(runs, []byte(group+filler))
	}
	for r := 0; r < 2000; r++ {
		var sb strings.Builder
		for sb.Len() < 100+rng.Intn(200) {
			switch rng.Intn(40) {
			case 0:
				sb.WriteString("0.,")
			case 1:
				sb.WriteString("1." + digits(3) + ",")
			case 2:
				sb.WriteString(midpointFractions(1)[0] + ",")
			default:
				sb.WriteString("0." + digits(1+rng.Intn(15)) + ",")
			}
		}
		runs = append(runs, []byte(sb.String()))
	}
	return runs
}

// fractionLimits are the pixel slot counts a run is read with: the whole
// array, and limits ending inside and on the edges of the first groups.
var fractionLimits = []int{1, 3, 4, 5, 7, 8, 9, 3 * 96 * 96}

// TestFractionsKernelMatchesSWAR is the named contract "the fractions
// kernel plus the Go loop ≡ the Go loop alone", on every kernel family:
// see checkFractionsMatchSWAR and fractionRuns.
func TestFractionsKernelMatchesSWAR(t *testing.T) {
	runs := fractionRuns(t)
	forEachKernel(t, func(t *testing.T) {
		for _, run := range runs {
			for _, limit := range fractionLimits {
				checkFractionsMatchSWAR(t, run, limit)
			}
		}
	})
}

// FuzzScanFractions is TestFractionsKernelMatchesSWAR on raw bytes and a
// raw slot count, under every kernel family. Its seeds are the test's runs
// but for the two 300 kB bench bodies and most of the random runs.
func FuzzScanFractions(f *testing.F) {
	for _, run := range fractionRuns(f)[2:200] {
		f.Add(run, uint16(1<<15))
		f.Add(run, uint16(5))
	}
	f.Fuzz(func(t *testing.T, buf []byte, limit uint16) {
		defer tensor.SelectKernel("")
		for _, name := range tensor.AvailableKernels() {
			if err := tensor.SelectKernel(name); err != nil {
				t.Fatal(err)
			}
			checkFractionsMatchSWAR(t, buf, int(limit))
		}
	})
}

// TestParsePixelMatchesStrconv draws decimal tokens json.Marshal would not
// write — any digit count, exponent and sign, and the neighbourhood of
// float32 rounding midpoints — and holds parsePixel to strconv.ParseFloat.
func TestParsePixelMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	check := func(tok string) {
		t.Helper()
		want, werr := strconv.ParseFloat(tok, 32)
		got, end, gerr := parsePixel([]byte(tok), 0)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s: parsePixel error %v, strconv error %v", tok, gerr, werr)
		}
		if gerr == nil && (end != len(tok) || math.Float32bits(got) != math.Float32bits(float32(want))) {
			t.Fatalf("%s: parsePixel %v (%#x) ending at %d, strconv %v (%#x)", tok, got, math.Float32bits(got), end, float32(want), math.Float32bits(float32(want)))
		}
		// The fast loop, where it takes the token, must agree as well.
		var pix [1]float32
		if n, end := scanFractions([]byte(tok+","+strings.Repeat(" ", fractionRun)), 0, pix[:], 0); n == 1 &&
			(end != len(tok)+1 || math.Float32bits(pix[0]) != math.Float32bits(float32(want))) {
			t.Fatalf("%s: scanFractions %v (%#x) ending at %d, strconv %v (%#x)", tok, pix[0], math.Float32bits(pix[0]), end, float32(want), math.Float32bits(float32(want)))
		}
	}
	digits := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('0' + rng.Intn(10))
		}
		return string(b)
	}
	for i := 0; i < 200000; i++ {
		tok := strconv.Itoa(rng.Intn(10))
		if tok != "0" {
			tok += digits(rng.Intn(20))
		}
		if rng.Intn(4) > 0 {
			tok += "." + digits(1+rng.Intn(24))
		}
		if rng.Intn(3) == 0 {
			tok += "e" + strconv.Itoa(rng.Intn(100)-50)
		}
		if rng.Intn(8) == 0 {
			tok = "-" + tok
		}
		check(tok)
	}
	// A float32 midpoint is exact in float64: print it in full, then nudge
	// the last digits so the decimal sits a hair to either side of it.
	for i := 0; i < 20000; i++ {
		lo := math.Float32frombits(rng.Uint32() &^ (1 << 31))
		hi := math.Nextafter32(lo, float32(math.Inf(1)))
		if math.IsInf(float64(hi), 0) || lo != lo {
			continue
		}
		mid := (float64(lo) + float64(hi)) / 2
		for _, prec := range []int{8, 12, 16, 17, 20} {
			tok := strconv.FormatFloat(mid, 'e', prec, 64)
			check(tok)
			check(strings.Replace(tok, "e", "1e", 1))
		}
		check(strconv.FormatFloat(mid, 'f', -1, 64))
	}
	// The same for the fast loop's fractions: midpoints in [0, 1) written
	// in at most fifteen digits, the last one nudged either way.
	for i := 0; i < 20000; i++ {
		lo := rng.Float32()
		mid := (float64(lo) + float64(math.Nextafter32(lo, 1))) / 2
		for _, prec := range []int{8, 9, 12, 15} {
			tok := strconv.FormatFloat(mid, 'f', prec, 64)
			check(tok)
			for _, nudge := range []float64{-1, 1} {
				check(strconv.FormatFloat(mid+nudge*math.Pow(10, float64(-prec)), 'f', prec, 64))
			}
		}
	}
}

// testFrameBody is a json.Marshal-ed side x side frame of random pixels.
func testFrameBody(tb testing.TB, side int) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(3))
	f := StreamFrame{Seq: 1, Width: side, Height: side, Pixels: make([]float32, 3*side*side)}
	for i := range f.Pixels {
		f.Pixels[i] = rng.Float32()
	}
	raw, err := json.Marshal(f)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// TestDecodeFrameAllocs: decoding a frame allocates its pixel slice and
// nothing else.
func TestDecodeFrameAllocs(t *testing.T) {
	raw := testFrameBody(t, 96)
	allocs := testing.AllocsPerRun(20, func() {
		if f, err := decodeFrame(raw); err != nil || len(f.Pixels) != 3*96*96 {
			t.Fatalf("decode: %d pixels, %v", len(f.Pixels), err)
		}
	})
	if allocs != 1 {
		t.Errorf("decodeFrame allocates %v times per 96x96 frame, want 1 (the pixel slice)", allocs)
	}
}

// allocated returns the fewest bytes fn allocates in five calls, as
// runtime.MemStats.TotalAlloc counts them. TotalAlloc counts every
// goroutine of the process, and another goroutine can only add to a call's
// count, so the least of several is fn's own.
func allocated(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestDecodeFrameBoundsPixels pins the early refusal: a body declaring 1x1
// and carrying a million elements is answered at the fourth without
// allocating in proportion to the body, seq intact; so is a short body
// declaring the largest frame; and without dimensions the array stops at
// the largest frame's count.
func TestDecodeFrameBoundsPixels(t *testing.T) {
	big := []byte(`{"seq":7,"width":1,"height":1,"pixels":[` + strings.Repeat("0,", 1<<20) + `0]}`)
	var f StreamFrame
	var err error
	if n := allocated(func() { f, err = decodeFrame(big) }); n > 4096 {
		t.Errorf("refusing a %d-byte body declaring 1x1 allocated %d bytes", len(big), n)
	}
	if !errors.Is(err, errPixelBound) || f.Seq != 7 {
		t.Errorf("1x1 with 2^20 elements: seq %d, error %v; want seq 7 and errPixelBound", f.Seq, err)
	}
	short := []byte(`{"seq":8,"width":2048,"height":2048,"pixels":[0,0,0]}`)
	if n := allocated(func() { f, err = decodeFrame(short) }); n > 4096 {
		t.Errorf("a %d-byte body declaring 2048x2048 allocated %d bytes", len(short), n)
	}
	if err != nil || len(f.Pixels) != 3 {
		t.Errorf("short 2048x2048 body: %d pixels, error %v; want 3 and a nil error (checkFrame counts them)", len(f.Pixels), err)
	}
	if testing.Short() {
		return
	}
	huge := bytes.Repeat([]byte("0,"), maxFramePixels+32)
	copy(huge, `{"seq":9, "pixels":[`)
	if f, err = decodeFrame(huge); err == nil || errors.Is(err, errPixelBound) || f.Seq != 9 {
		t.Errorf("dimensionless array over %d elements: seq %d, error %v; want seq 9 and a plain refusal", maxFramePixels, f.Seq, err)
	}
}

// cameraFrameBody is a json.Marshal-ed side x side frame from the
// simulated camera: the bytes the detect-ingest and sharded bench
// workloads post, about 10.8 bytes a pixel.
func cameraFrameBody(tb testing.TB, side int) []byte {
	tb.Helper()
	f, _ := pipeline.NewSimCamera(dataset.DefaultConfig(side), 1, 7).Next()
	raw, err := json.Marshal(DetectRequest{Width: side, Height: side, Pixels: f.Image.Pix})
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// benchFrames runs fn on the two 96x96 bodies the decoder is measured on:
// random floats over [0, 1) and a simulated camera frame.
func benchFrames(b *testing.B, fn func(b *testing.B, raw []byte)) {
	for _, c := range []struct {
		name string
		body func(testing.TB, int) []byte
	}{{"random", testFrameBody}, {"camera", cameraFrameBody}} {
		b.Run(c.name, func(b *testing.B) {
			raw := c.body(b, 96)
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			b.ResetTimer()
			fn(b, raw)
		})
	}
}

// BenchmarkDecodeFrame against BenchmarkDecodeFrameEncodingJSON is the
// ratio the decoder exists for, on the 96x96 frames of the detect-ingest
// and sharded workloads: go test -run '^$' -bench DecodeFrame ./internal/serve
func BenchmarkDecodeFrame(b *testing.B) {
	benchFrames(b, func(b *testing.B, raw []byte) {
		for i := 0; i < b.N; i++ {
			if _, err := decodeFrame(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDecodeFrameEncodingJSON(b *testing.B) {
	benchFrames(b, func(b *testing.B, raw []byte) {
		for i := 0; i < b.N; i++ {
			var f StreamFrame
			if err := json.Unmarshal(raw, &f); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// FuzzDecodeFrameIntoMatchesFresh holds decodeFrameInto, which /detect
// runs on a pooled frame's storage, to decodeFrame on a fresh slice: the
// same error or none, the same fields and the pixels bit for bit, whatever
// the reused storage held — a null element past what the document has
// written reads as the fresh slice's zero.
func FuzzDecodeFrameIntoMatchesFresh(f *testing.F) {
	for _, s := range frameSeeds {
		f.Add([]byte(s), uint16(12))
	}
	f.Add([]byte(`{"width":1,"height":1,"pixels":[null,0.5,null]}`), uint16(3))
	f.Add([]byte(`{"pixels":[0.25,null,0.5,0.75],"pixels":[null,null,null,null,null]}`), uint16(8))
	f.Add([]byte(`{"pixels":[1,2],"pixels":null,"pixels":[null,3]}`), uint16(2))
	f.Fuzz(func(t *testing.T, raw []byte, spareLen uint16) {
		want, werr := decodeFrame(raw)
		spare := make([]float32, spareLen)
		for i := range spare {
			spare[i] = float32(math.NaN())
		}
		got, gerr := decodeFrameInto(raw, spare)
		if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("%q: decodeFrameInto: %v, decodeFrame: %v", raw, gerr, werr)
		}
		if gerr != nil {
			return
		}
		if got.Seq != want.Seq || got.Width != want.Width || got.Height != want.Height || got.DeadlineMs != want.DeadlineMs ||
			math.Float64bits(got.Altitude) != math.Float64bits(want.Altitude) || len(got.Pixels) != len(want.Pixels) {
			t.Fatalf("%q:\n  decodeFrameInto: %+v\n  decodeFrame:     %+v", raw, got, want)
		}
		for i := range want.Pixels {
			if math.Float32bits(got.Pixels[i]) != math.Float32bits(want.Pixels[i]) {
				t.Fatalf("%q: pixel %d = %v, decodeFrame has %v", raw, i, got.Pixels[i], want.Pixels[i])
			}
		}
	})
}
