package tensor

import (
	"testing"
)

// quantizeForTest maps floats in [-1,1] to int8 with a fixed scale of 1/127,
// enough structure to exercise every tile path.
func quantizeForTest(src []float32) []int8 {
	out := make([]int8, len(src))
	for i, v := range src {
		q := int32(v * 127)
		if q > 127 {
			q = 127
		}
		if q < -127 {
			q = -127
		}
		out[i] = int8(q)
	}
	return out
}

// TestGemmInt8MatchesNaive pins GemmInt8 (strip/panel-blocked) to the
// textbook triple loop with int32 accumulation and per-row requantization —
// exactness, not tolerance, since integer accumulation has no rounding.
func TestGemmInt8MatchesNaive(t *testing.T) {
	rng := NewRNG(11)
	for _, sz := range []struct{ m, n, k int }{
		{1, 1, 1}, {3, 7, 5}, {12, 33, 72}, {17, 130, 260}, {9, 5, 300},
	} {
		a := make([]int8, sz.m*sz.k)
		b := make([]int8, sz.k*sz.n)
		fa := make([]float32, len(a))
		fb := make([]float32, len(b))
		rng.FillUniform(fa, -1, 1)
		rng.FillUniform(fb, -1, 1)
		copy(a, quantizeForTest(fa))
		copy(b, quantizeForTest(fb))
		requant := make([]float32, sz.m)
		bias := make([]float32, sz.m)
		for i := range requant {
			requant[i] = 0.001 * float32(i+1)
			bias[i] = float32(i) - 2
		}

		want := make([]float32, sz.m*sz.n)
		for i := 0; i < sz.m; i++ {
			for j := 0; j < sz.n; j++ {
				var acc int32
				for p := 0; p < sz.k; p++ {
					acc += int32(a[i*sz.k+p]) * int32(b[p*sz.n+j])
				}
				want[i*sz.n+j] = float32(acc)*requant[i] + bias[i]
			}
		}
		got := make([]float32, sz.m*sz.n)
		GemmInt8(sz.m, sz.n, sz.k, a, sz.k, b, sz.n, requant, bias, got, sz.n)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("m%d n%d k%d: C[%d] = %v, want %v", sz.m, sz.n, sz.k, i, got[i], want[i])
			}
		}
	}
}
