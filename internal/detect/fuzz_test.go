package detect

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"testing"
)

// finite bounds the fuzzed coordinates: IoU's geometric invariants hold for
// any finite boxes, but astronomically large extents overflow float64 area
// arithmetic to +Inf (Inf/Inf = NaN), which is an accepted numeric
// limitation, not a logic bug.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
			return false
		}
	}
	return true
}

// FuzzIoU checks the IoU invariants on arbitrary (possibly degenerate or
// inverted) boxes: the same bits as iouReference, no panic, result in
// [0,1], symmetry, and identity on a box with positive area whose edges
// are exact.
func FuzzIoU(f *testing.F) {
	f.Add(0.5, 0.5, 0.2, 0.2, 0.5, 0.5, 0.2, 0.2)
	f.Add(0.1, 0.1, 0.0, 0.0, 0.9, 0.9, -1.0, 2.0)
	f.Add(0.0, 0.0, 1e6, 1e6, 1.0, 1.0, 1e-9, 1e-9)
	// Touching edges with an infinite height (0·Inf must not reach the
	// union), and identical boxes of subnormal area.
	f.Add(0.0, 0.0, 2.0, math.Inf(1), 2.0, 0.0, 2.0, math.Inf(1))
	f.Add(0.0, 0.0, 1e-160, 1e-160, 0.0, 0.0, 1e-160, 1e-160)
	f.Fuzz(func(t *testing.T, x1, y1, w1, h1, x2, y2, w2, h2 float64) {
		a := Box{X: x1, Y: y1, W: w1, H: h1}
		b := Box{X: x2, Y: y2, W: w2, H: h2}
		iou := IoU(a, b)
		// math.Min returns a canonical NaN where the builtin may pass the
		// operand's through, so NaN results agree on NaN-ness only.
		ref := iouReference(a, b)
		if math.Float64bits(iou) != math.Float64bits(ref) && !(math.IsNaN(iou) && math.IsNaN(ref)) {
			t.Fatalf("IoU(%+v, %+v) = %v, reference %v", a, b, iou, ref)
		}
		if !finite(x1, y1, w1, h1, x2, y2, w2, h2) {
			t.Skip("non-finite or overflow-prone input")
		}
		if math.IsNaN(iou) || iou < 0 || iou > 1 {
			t.Fatalf("IoU(%+v, %+v) = %v, want [0,1]", a, b, iou)
		}
		if rev := IoU(b, a); math.Abs(iou-rev) > 1e-12 {
			t.Fatalf("IoU not symmetric: %v vs %v", iou, rev)
		}
		// Identity needs the edges to reproduce the extent: a centre far from
		// the origin can absorb a tiny width, leaving Left == Right.
		if a.Area() > 0 && a.Right()-a.Left() == a.W && a.Bottom()-a.Top() == a.H {
			if self := IoU(a, a); math.Abs(self-1) > 1e-9 {
				t.Fatalf("IoU(a, a) = %v for positive-area box %+v, want 1", self, a)
			}
		}
		if Intersection(a, b) == 0 && iou != 0 {
			t.Fatalf("disjoint boxes with IoU %v", iou)
		}
	})
}

// decodeDetections derives a deterministic detection list from fuzz bytes.
// An even leading byte selects the grid leg: five bytes per detection give
// center, size, score and class on a 1/128 grid near the origin —
// coordinates may exceed [0,1] and sizes may be zero. An odd one selects
// the raw leg: five little-endian float64s per detection (X, Y, W, H,
// Score), class from the score's low bits, so centres far from the origin,
// tiny and huge sides, zero, negative, NaN and ±Inf fields all occur — the
// boxes NMS's area window must leave to the full scan.
func decodeDetections(data []byte) []Detection {
	if len(data) == 0 {
		return nil
	}
	leg, data := data[0], data[1:]
	var dets []Detection
	if leg&1 == 1 {
		f := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:])) }
		for i := 0; 8*(i+5) <= len(data); i += 5 {
			dets = append(dets, Detection{
				Box:   Box{X: f(i), Y: f(i + 1), W: f(i + 2), H: f(i + 3)},
				Score: f(i + 4),
				Class: int(data[8*(i+4)] % 3),
			})
		}
		return dets
	}
	for i := 0; i+5 <= len(data); i += 5 {
		dets = append(dets, Detection{
			Box: Box{
				X: float64(data[i]) / 128.0,
				Y: float64(data[i+1]) / 128.0,
				W: float64(data[i+2]) / 255.0,
				H: float64(data[i+3]) / 255.0,
			},
			Score: float64(data[i+4]) / 255.0,
			Class: int(data[i+4]) % 3,
		})
	}
	return dets
}

// encodeRawDetections writes dets as raw-leg input. The leg derives each
// class from its score's bits, so classes do not round-trip.
func encodeRawDetections(dets []Detection) []byte {
	data := []byte{1}
	for _, d := range dets {
		for _, v := range []float64{d.Box.X, d.Box.Y, d.Box.W, d.Box.H, d.Score} {
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
		}
	}
	return data
}

// farPair is two boxes 2^52 from the origin, where the smaller one's edges
// round outward to twice its width: their IoU is 2/3 although their areas
// differ fourfold, so an area window would skip the pair. NMS must test it
// with the full scan and suppress the second box.
func farPair() []Detection {
	return []Detection{
		{Box: Box{X: 0x1p52 + 1, Y: 0.5, W: 4, H: 0.1}, Score: 0.9},
		{Box: Box{X: 0x1p52 + 1, Y: 0.5, W: 1, H: 0.1}, Score: 0.8},
	}
}

// iouReference is IoU as it was written before the edges and areas were
// hoisted into edges: every edge recomputed through math.Min and math.Max.
// IoU must return the same bits.
func iouReference(a, b Box) float64 {
	inter := func() float64 {
		w := math.Min(a.Right(), b.Right()) - math.Max(a.Left(), b.Left())
		h := math.Min(a.Bottom(), b.Bottom()) - math.Max(a.Top(), b.Top())
		if w <= 0 || h <= 0 {
			return 0
		}
		return w * h
	}
	u := a.Area() + b.Area() - inter()
	if u <= 0 {
		return 0
	}
	iou := inter() / u
	if iou > 1 {
		return 1
	}
	return iou
}

// nmsReference is NMS as it was written before the edges and areas were
// hoisted out of the pair loop: a reflection-based stable sort and
// iouReference on every pair. NMS must return the same kept slice, element
// for element.
func nmsReference(dets []Detection, thresh float64) []Detection {
	if len(dets) == 0 {
		return nil
	}
	sorted := make([]Detection, len(dets))
	copy(sorted, dets)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Score > sorted[j].Score })
	kept := make([]Detection, 0, len(sorted))
	for _, d := range sorted {
		suppressed := false
		for _, k := range kept {
			if k.Class == d.Class && iouReference(k.Box, d.Box) > thresh {
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	return kept
}

// assertNMSMatchesReference compares NMS with nmsReference element for
// element, by bits where a field is a float.
func assertNMSMatchesReference(t *testing.T, dets []Detection, thresh float64) []Detection {
	t.Helper()
	got, want := NMS(dets, thresh), nmsReference(dets, thresh)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if len(got) != len(want) {
		t.Fatalf("thresh %v: NMS kept %d, reference %d", thresh, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Class != w.Class || !same(g.Score, w.Score) || !same(g.Box.X, w.Box.X) ||
			!same(g.Box.Y, w.Box.Y) || !same(g.Box.W, w.Box.W) || !same(g.Box.H, w.Box.H) {
			t.Fatalf("thresh %v: kept[%d] = %+v, reference %+v", thresh, i, g, w)
		}
	}
	return got
}

// TestNMSMatchesReferenceOnSpecials runs the differential on boxes the
// fuzzer's byte decoding cannot produce: ±0, NaN and infinite coordinates
// and scores, negative sizes, and thresholds at and below 0.
func TestNMSMatchesReferenceOnSpecials(t *testing.T) {
	nan, inf, nz := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	var dets []Detection
	for i, v := range []float64{0, nz, nan, inf, -inf, -0.1, 0.3, 1e300} {
		dets = append(dets,
			Detection{Box: Box{X: v, Y: 0.5, W: 0.2, H: 0.2}, Score: 0.9, Class: i % 2},
			Detection{Box: Box{X: 0.5, Y: 0.5, W: v, H: 0.2}, Score: v, Class: i % 2},
			Detection{Box: Box{X: 0.5, Y: v, W: 0.2, H: -v}, Score: 0.5, Class: 0},
			Detection{Box: Box{X: 0.45, Y: 0.5, W: 0.2, H: 0.2}, Score: 0.7 - float64(i)/100, Class: 1},
		)
	}
	// Two zero-area boxes of one class: their union is 0, so their IoU is 0
	// and a negative threshold suppresses the second.
	dets = append(dets,
		Detection{Box: Box{X: 0.5, Y: 0.5}, Score: 0.8, Class: 2},
		Detection{Box: Box{X: 0.6, Y: 0.6}, Score: 0.7, Class: 2},
	)
	for _, thresh := range []float64{-1, nz, 0, 0.3, 0.45, 1, 2} {
		assertNMSMatchesReference(t, dets, thresh)
	}

	// The area window's inputs: tame region candidates alone, then with a
	// box that is not tame — far from the origin in widths, a side too tiny
	// or too huge, a zero, negative, NaN or infinite field — ranked first,
	// in the middle and last, so the full scan takes over at every point.
	region := regionDets(1)
	far := farPair()
	if got := NMS(far, 0.45); len(got) != 1 {
		t.Fatalf("far pair (IoU %v): kept %d, want 1", IoU(far[0].Box, far[1].Box), len(got))
	}
	wild := []Box{
		far[0].Box, {X: 0.5, Y: 0.5, W: 1e-40, H: 0.1}, {X: 0.5, Y: 0.5, W: 0.1, H: 1e40},
		{X: 0.5, Y: 0.5, W: 0, H: 0.1}, {X: 0.5, Y: 0.5, W: -0.1, H: 0.1}, {X: nan, Y: 0.5, W: 0.1, H: 0.1},
		{X: 0.5, Y: 0.5, W: 0.1, H: inf}, {X: -inf, Y: 0.5, W: 0.1, H: 0.1},
	}
	// Tied scores across the merge sort's runs of eight, ±0 among them:
	// the stable order keeps input order within a tie.
	var ties []Detection
	for i := range 40 {
		score := float64(i%3) / 4
		if i%5 == 0 {
			score = nz
		}
		ties = append(ties, Detection{Box: Box{X: float64(i%8) / 8, Y: float64(i/8) / 8, W: 0.1, H: 0.1}, Score: score})
	}
	sets := [][]Detection{region, far, ties}
	for _, b := range wild {
		for _, score := range []float64{2, 0.5, -1} {
			sets = append(sets, append(slices.Clone(region), Detection{Box: b, Score: score}))
		}
	}
	for _, set := range sets {
		for _, thresh := range []float64{-1, 0, 1e-300, 0.3, 0.45, 0.9, 1, 2, nan} {
			assertNMSMatchesReference(t, set, thresh)
		}
	}
}

// FuzzNMS holds NMS to nmsReference on arbitrary detection sets and checks
// the suppression invariants: no panic, the output is a subset of the
// input, scores are descending, and no two kept detections of the same
// class overlap above the threshold.
func FuzzNMS(f *testing.F) {
	f.Add([]byte{}, 0.45)
	f.Add([]byte{0, 64, 64, 128, 128, 200, 64, 64, 128, 128, 100}, 0.45)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 255, 255, 255, 255, 255}, 0.0)
	f.Add(encodeRawDetections(regionDets(1)), 0.45)
	f.Add(encodeRawDetections(farPair()), 0.45)
	f.Fuzz(func(t *testing.T, data []byte, thresh float64) {
		dets := decodeDetections(data)
		input := make([]Detection, len(dets))
		copy(input, dets)

		kept := assertNMSMatchesReference(t, dets, thresh)

		if len(kept) > len(dets) {
			t.Fatalf("NMS grew the set: %d -> %d", len(dets), len(kept))
		}
		for i, d := range dets {
			if detBits(d) != detBits(input[i]) {
				t.Fatal("NMS mutated its input slice")
			}
		}
		// Subset: every kept detection appears in the input at least as often
		// as it is kept (duplicates are legal input).
		counts := make(map[[6]uint64]int)
		for _, d := range input {
			counts[detBits(d)]++
		}
		for _, k := range kept {
			counts[detBits(k)]--
			if counts[detBits(k)] < 0 {
				t.Fatalf("kept detection %+v not in (or kept more often than) input", k)
			}
		}
		// A NaN score is unordered, so the stable sort need not leave the
		// others descending around it.
		if !slices.ContainsFunc(input, func(d Detection) bool { return math.IsNaN(d.Score) }) {
			for i := 1; i < len(kept); i++ {
				if kept[i].Score > kept[i-1].Score {
					t.Fatalf("kept scores not descending at %d: %v after %v", i, kept[i].Score, kept[i-1].Score)
				}
			}
		}
		for i := 0; i < len(kept); i++ {
			for j := i + 1; j < len(kept); j++ {
				if kept[i].Class == kept[j].Class && IoU(kept[i].Box, kept[j].Box) > thresh {
					t.Fatalf("kept pair %d,%d of class %d overlaps above thresh %v (IoU %v)",
						i, j, kept[i].Class, thresh, IoU(kept[i].Box, kept[j].Box))
				}
			}
		}
	})
}

// detBits is a detection as bits, a map key and comparison NaN fields do
// not defeat.
func detBits(d Detection) [6]uint64 {
	b := math.Float64bits
	return [6]uint64{b(d.Box.X), b(d.Box.Y), b(d.Box.W), b(d.Box.H), uint64(d.Class), b(d.Score)}
}
