// Package detect provides the object-detection geometry and post-processing
// primitives: center-format bounding boxes, intersection-over-union,
// non-maximum suppression, decoding of region-layer output, and the
// altitude-based size gating described in §III.D of the paper.
package detect

import "math"

// Box is an axis-aligned bounding box in center format. Coordinates are
// normalized to [0,1] relative to the image unless stated otherwise.
type Box struct {
	X, Y float64 // center
	W, H float64 // width, height
}

// Left, Right, Top, Bottom return the box edges.
func (b Box) Left() float64   { return b.X - b.W/2 }
func (b Box) Right() float64  { return b.X + b.W/2 }
func (b Box) Top() float64    { return b.Y - b.H/2 }
func (b Box) Bottom() float64 { return b.Y + b.H/2 }

// Area returns the box area (0 for degenerate boxes).
func (b Box) Area() float64 {
	if b.W <= 0 || b.H <= 0 {
		return 0
	}
	return b.W * b.H
}

// edges is a box's edges and area, the operands of Intersection and IoU.
// NMS computes them once per box instead of once per pair.
type edges struct {
	left, right, top, bottom, area float64
}

func edgesOf(b Box) edges {
	return edges{left: b.Left(), right: b.Right(), top: b.Top(), bottom: b.Bottom(), area: b.Area()}
}

// intersection is Intersection on precomputed edges. The builtin min and
// max follow math.Min and math.Max on NaN and ±0.
func (a *edges) intersection(b *edges) float64 {
	w := min(a.right, b.right) - max(a.left, b.left)
	h := min(a.bottom, b.bottom) - max(a.top, b.top)
	if w <= 0 || h <= 0 {
		return 0
	}
	return w * h
}

// iou is IoU on precomputed edges.
func (a *edges) iou(b *edges) float64 {
	inter := a.intersection(b)
	u := a.area + b.area - inter
	if u <= 0 {
		return 0
	}
	iou := inter / u
	if iou > 1 {
		return 1
	}
	return iou
}

// Intersection returns the overlap area of a and b.
func Intersection(a, b Box) float64 {
	ea, eb := edgesOf(a), edgesOf(b)
	return ea.intersection(&eb)
}

// IoU returns the intersection-over-union similarity of a and b in [0,1].
// Two degenerate boxes have IoU 0. The result is clamped: Intersection is
// computed from the box edges while Area is w·h, so for boxes centered far
// from the origin the two can differ by an ulp and push the raw ratio just
// past 1 (found by FuzzIoU).
func IoU(a, b Box) float64 {
	ea, eb := edgesOf(a), edgesOf(b)
	return ea.iou(&eb)
}

// ShapeIoU returns the IoU of two boxes compared purely by shape, i.e. both
// re-centered at the origin. The region layer uses it for anchor assignment.
func ShapeIoU(a, b Box) float64 {
	a.X, a.Y, b.X, b.Y = 0, 0, 0, 0
	return IoU(a, b)
}

// Clip restricts the box to the unit square, preserving center format.
func (b Box) Clip() Box {
	l := math.Max(0, b.Left())
	r := math.Min(1, b.Right())
	t := math.Max(0, b.Top())
	bt := math.Min(1, b.Bottom())
	if r < l {
		r = l
	}
	if bt < t {
		bt = t
	}
	return Box{X: (l + r) / 2, Y: (t + bt) / 2, W: r - l, H: bt - t}
}

// Scale returns the box with all coordinates multiplied component-wise,
// converting between normalized and pixel coordinates.
func (b Box) Scale(sx, sy float64) Box {
	return Box{X: b.X * sx, Y: b.Y * sy, W: b.W * sx, H: b.H * sy}
}
