package detect

import "slices"

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
func NMS(dets []Detection, thresh float64) []Detection {
	if len(dets) == 0 {
		return nil
	}
	sorted := slices.Clone(dets)
	slices.SortStableFunc(sorted, func(a, b Detection) int {
		if a.Score > b.Score {
			return -1
		}
		if b.Score > a.Score {
			return 1
		}
		return 0
	})
	kept := make([]Detection, 0, len(sorted))
	boxes := make([]edges, 0, len(sorted)) // boxes[i] = edgesOf(kept[i].Box)
	for _, d := range sorted {
		e := edgesOf(d.Box)
		suppressed := false
		for i := range kept {
			if kept[i].Class == d.Class && boxes[i].iou(&e) > thresh {
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, d)
			boxes = append(boxes, e)
		}
	}
	return kept
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
