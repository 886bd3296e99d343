package tensor

import (
	"math"
	"testing"
)

// TestEpilogueRowMatchesGo holds every family's vector epilogue row to the
// Go loop of Epilogue.apply by float bits: ±0, ±Inf and subnormal inputs
// among NaN-free random data, row lengths 0–7 past each multiple of eight,
// a strided C window, with and without batch norm and leaky.
func TestEpilogueRowMatchesGo(t *testing.T) {
	kernelOnce.Do(initKernelList)
	sub := math.Float32frombits(1) // smallest subnormal
	specials := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		sub, -sub, 1e-39, -1e-39, math.SmallestNonzeroFloat32 * 3, math.MaxFloat32, -math.MaxFloat32}
	rng := NewRNG(17)
	const m, j0, pad = 3, 2, 5
	for _, kern := range kernelList {
		if kern.epilogue == nil {
			continue
		}
		for _, cols := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 23, 64, 71} {
			for _, bn := range []bool{false, true} {
				for _, leaky := range []bool{false, true} {
					ep := Epilogue{Bias: make([]float32, m), Leaky: leaky}
					rng.FillUniform(ep.Bias, -0.5, 0.5)
					ep.Bias[0] = sub
					if bn {
						ep.Mean, ep.Scale, ep.InvStd = make([]float32, m), make([]float32, m), make([]float32, m)
						rng.FillUniform(ep.Mean, -0.3, 0.3)
						rng.FillUniform(ep.Scale, 0.5, 1.5)
						rng.FillUniform(ep.InvStd, 0.2, 2)
						ep.Mean[1] = -sub
					}
					ldc := j0 + cols + pad
					got := make([]float32, m*ldc)
					rng.FillUniform(got, -2, 2)
					for i := range got {
						if rng.Intn(4) == 0 {
							got[i] = specials[rng.Intn(len(specials))]
						}
					}
					want := append([]float32(nil), got...)
					ep.apply(nil, want, ldc, m, j0, cols)
					ep.apply(kern.epilogue, got, ldc, m, j0, cols)
					for i := range want {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("%s cols=%d bn=%v leaky=%v: c[%d] = %v (%#x), Go loop %v (%#x)", kern.name, cols, bn, leaky,
								i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
						}
					}
				}
			}
		}
	}
}

// TestDirectKernelMatchesPacked holds every family's f32Direct to its f32
// on the panel packed from the same offsets, bit for bit, into C in place
// and into a scratch-shaped tile, and checks that the wrapper refuses an
// origin too short for the last offset.
func TestDirectKernelMatchesPacked(t *testing.T) {
	kernelOnce.Do(initKernelList)
	rng := NewRNG(23)
	for _, kern := range kernelList {
		if kern.f32Direct == nil {
			continue
		}
		mr, nr := kern.mr, kern.nr
		for _, kc := range []int{1, 2, 9, 27, 256} {
			offs := make([]int, kc)
			for p := 1; p < kc; p++ {
				offs[p] = offs[p-1] + 1 + rng.Intn(40)
			}
			origin := make([]float32, offs[kc-1]+nr)
			rng.FillUniform(origin, -1, 1)
			pb := make([]float32, kc*nr)
			for p, off := range offs {
				copy(pb[p*nr:(p+1)*nr], origin[off:])
			}
			pa := make([]float32, kc*mr)
			rng.FillUniform(pa, -1, 1)
			for _, ldc := range []int{nr, nr + 7} {
				want := make([]float32, mr*ldc)
				rng.FillUniform(want, -1, 1)
				got := append([]float32(nil), want...)
				kern.f32(kc, pa, pb, want, ldc)
				kern.f32Direct(kc, pa, origin, offs, got, ldc)
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%s kc=%d ldc=%d: c[%d] = %v, packed kernel %v", kern.name, kc, ldc, i, got[i], want[i])
					}
				}
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s kc=%d: f32Direct read past the end of origin without a panic", kern.name, kc)
					}
				}()
				kern.f32Direct(kc, pa, origin[:len(origin)-1], offs, make([]float32, mr*nr), nr)
			}()
		}
	}
}
