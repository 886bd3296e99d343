package quant

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// roundHalfAwayReference is tensor.QuantizeSymmetric for one value, rounded by
// math.Round in float64: the float32 scaled value t (v times the inverse
// scale, or v/scale when the inverse overflows) rounded half away from zero
// and clamped to ±127.
func roundHalfAwayReference(v, scale float32) int8 {
	inv := 1 / scale
	t := v * inv
	if math.IsInf(float64(inv), 0) {
		t = v / scale
	}
	return int8(math.Max(-127, math.Min(127, math.Round(float64(t)))))
}

// FuzzQuantDequant pins the symmetric quantizer's round-trip guarantee: for
// any finite inputs, quantize→dequantize with the calibration-convention
// scale (maxAbs/127) reconstructs each element to within scale/2 — the
// worst case of round-to-nearest — including negative and subnormal values.
// The only exemption is a scale that underflows float32 entirely (maxAbs
// below 127 times the smallest subnormal), where everything quantizes to
// zero by construction. Every element must also equal the math.Round
// reference exactly.
func FuzzQuantDequant(f *testing.F) {
	f.Add(float32(0.5), float32(-0.25), float32(1.0), float32(-1.0))
	f.Add(float32(1e-38), float32(-1e-41), float32(1e-44), float32(0))
	f.Add(float32(math.SmallestNonzeroFloat32), float32(-math.SmallestNonzeroFloat32), float32(0), float32(0))
	f.Add(float32(3.4e38), float32(-3.4e38), float32(1), float32(-1))
	f.Add(float32(0), float32(0), float32(0), float32(0))
	f.Add(float32(0.49999997), float32(-0.49999997), float32(0.5), float32(-0.5))
	f.Fuzz(func(t *testing.T, a, b, c, d float32) {
		src := []float32{a, b, c, d}
		var maxAbs float32
		for _, v := range src {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Skip("quantization is defined for finite inputs")
			}
			if av := abs32(v); av > maxAbs {
				maxAbs = av
			}
		}
		scale := maxAbs / 127 // the calibration convention of Quantize

		dst := make([]int8, len(src))
		tensor.QuantizeSymmetric(src, scale, dst)
		back := make([]float32, len(src))
		Dequantize(dst, scale, back)

		if scale == 0 {
			// maxAbs underflowed the scale: the whole range collapses to the
			// zero point and the round trip must return exactly zero.
			for i, q := range dst {
				if q != 0 || back[i] != 0 {
					t.Fatalf("zero-scale round trip: q[%d]=%d back=%v", i, dst[i], back[i])
				}
			}
			return
		}
		// Bound: half a quantization step, with a hair of slack for the
		// inverse-multiply rounding on the hot path, plus the scale's own
		// float32 representation error — maxAbs/127 rounds to a subnormal
		// with absolute error up to half a subnormal ulp, which stretches
		// the far end of the range by up to 127/2 ulps. For any normal
		// scale that term is invisible. Comparison in float64 so the check
		// itself adds no rounding.
		tol := float64(scale)*0.5001 + 127*math.SmallestNonzeroFloat32/2
		for i, v := range src {
			if dst[i] > 127 || dst[i] < -127 {
				t.Fatalf("q[%d] = %d outside the symmetric int8 range", i, dst[i])
			}
			if want := roundHalfAwayReference(v, scale); dst[i] != want {
				t.Fatalf("q[%d] = %d for %v at scale %v, want %d (round half away from zero)", i, dst[i], v, scale, want)
			}
			err := math.Abs(float64(v) - float64(dst[i])*float64(scale))
			if err > tol {
				t.Fatalf("element %d: |%v - %d*%v| = %v exceeds scale/2 = %v",
					i, v, dst[i], scale, err, float64(scale)/2)
			}
		}
	})
}
