package detect

import (
	"math"
	"slices"
)

// Detection is a scored, classified box produced by decoding the network
// output.
type Detection struct {
	Box   Box
	Class int
	// Score is the detection confidence: objectness times class probability.
	Score float64
}

// NMS performs per-class greedy non-maximum suppression: detections are
// processed in descending score order and any detection overlapping an
// already-kept detection of the same class with IoU > thresh is dropped.
// The input slice is not modified; the result is sorted by descending score.
//
// Any one kept detection of the class above thresh suppresses, whichever
// it is, so NMS searches the kept boxes in area order and skips those that
// cannot reach thresh: IoU(p, q) ≤ min(area)/max(area), the intersection
// being at most the smaller box and the union at least the larger. A
// candidate of area a is tested only against kept boxes whose area lies in
// [a·f, a/f), f = thresh·(1−δ), δ = 2^-20.
//
// The bound survives rounding when both boxes are tame: both sides in
// [2^-100, 2^100] and the centre within 2^20 sides of the origin. A computed
// edge pair then spans its side to within (2·2^20+1)·2^-53 of it, so the
// computed intersection exceeds the smaller area, and the computed union
// falls short of the larger, by a relative 2^-28 at most: IoU ≤
// ratio·(1+2^-27), far inside δ. (A thresh so small that f is subnormal
// opens the window to every tame area.) For thresh outside (0, 1), and from
// the first candidate in score order that is not tame on, NMS tests every
// kept box.
func NMS(dets []Detection, thresh float64) []Detection {
	if len(dets) == 0 {
		return nil
	}
	sorted := slices.Clone(dets)
	kept := make([]Detection, len(sorted))
	sortByScore(sorted, kept)
	kept = kept[:0]
	windowed := thresh > 0 && thresh < 1
	f := thresh * (1 - areaSlack)
	// boxes holds the kept boxes' edges, in ascending area order while
	// windowed; once not, later boxes are appended.
	boxes := make([]keptBox, 0, len(sorted))
	for _, d := range sorted {
		c := keptBox{edgesOf(d.Box), d.Class}
		first, end := 0, len(boxes)
		if windowed = windowed && tame(d.Box); windowed {
			first, end = areaRank(boxes, c.area*f), areaRank(boxes, c.area/f)
		}
		suppressed := false
		for i := first; i < end; i++ {
			k := &boxes[i]
			if k.class == c.class && k.iou(&c.edges) > thresh {
				suppressed = true
				break
			}
		}
		if suppressed {
			continue
		}
		kept = append(kept, d)
		boxes = append(boxes, c)
		if windowed {
			at := first + areaRank(boxes[first:end], c.area)
			copy(boxes[at+1:], boxes[at:])
			boxes[at] = c
		}
	}
	return kept
}

// sortByScore sorts dets by descending score, stably, through buf, which
// is as long as dets. Without a NaN score > is a strict weak order, under
// which every stable sort gives the same order, so a bottom-up merge sort
// through buf stands in for slices.SortStableFunc, whose in-place merges
// move each element log n times more often. With a NaN the order depends
// on the algorithm, and such a set keeps slices.SortStableFunc.
func sortByScore(dets, buf []Detection) {
	for _, d := range dets {
		if math.IsNaN(d.Score) {
			slices.SortStableFunc(dets, func(a, b Detection) int {
				if a.Score > b.Score {
					return -1
				}
				if b.Score > a.Score {
					return 1
				}
				return 0
			})
			return
		}
	}
	const run = 8 // insertion-sorted before the merges
	for lo := 0; lo < len(dets); lo += run {
		hi := min(lo+run, len(dets))
		for i := lo + 1; i < hi; i++ {
			for j := i; j > lo && dets[j].Score > dets[j-1].Score; j-- {
				dets[j], dets[j-1] = dets[j-1], dets[j]
			}
		}
	}
	src, dst := dets, buf[:len(dets)]
	for width := run; width < len(dets); width *= 2 {
		for lo := 0; lo < len(src); lo += 2 * width {
			mid, hi := min(lo+width, len(src)), min(lo+2*width, len(src))
			i, j := lo, mid
			for k := lo; k < hi; k++ {
				// The right run's element goes first only when strictly greater.
				if j < hi && (i == mid || src[j].Score > src[i].Score) {
					dst[k] = src[j]
					j++
				} else {
					dst[k] = src[i]
					i++
				}
			}
		}
		src, dst = dst, src
	}
	copy(dets, src) // after an even number of passes src is dets itself
}

// The area window's slack δ and the tame-box guard (see NMS).
const (
	areaSlack   = 0x1p-20
	tameMinSide = 0x1p-100
	tameMaxSide = 0x1p100
	tameOffset  = 0x1p20 // |centre| in sides
)

// tame reports whether b lies where NMS's area window is sound. NaN and
// infinite fields fail every comparison.
func tame(b Box) bool {
	return b.W >= tameMinSide && b.W <= tameMaxSide && b.H >= tameMinSide && b.H <= tameMaxSide &&
		math.Abs(b.X) <= tameOffset*b.W && math.Abs(b.Y) <= tameOffset*b.H
}

// keptBox is a kept detection's edges and class.
type keptBox struct {
	edges
	class int
}

// areaRank returns how many of the area-ordered boxes have an area below a.
func areaRank(boxes []keptBox, a float64) int {
	lo, hi := 0, len(boxes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if boxes[mid].area < a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// FilterScore returns the detections with Score >= thresh, preserving order.
func FilterScore(dets []Detection, thresh float64) []Detection {
	out := make([]Detection, 0, len(dets))
	for _, d := range dets {
		if d.Score >= thresh {
			out = append(out, d)
		}
	}
	return out
}
