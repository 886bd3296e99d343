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
			if kern.f32DirectFinish != nil {
				checkDirectFinish(t, kern, kc, pa, offs, rng)
			}
		}
	}
}

// checkDirectFinish holds kern.f32DirectFinish over 1…7 adjacent panels —
// every wide grouping of a thin strip, with and without a remainder — to
// f32Direct into a cleared tile followed by kern.epilogue on each of the
// first rows rows of each panel, with C left alone elsewhere, for 1…mr
// rows, with and without batch norm, leaky and linear. Row 0 of pa weights
// the first tap by 1e-30, so the −1e-30 planted in that tap makes an
// accumulator of −0 when kc is 1 (the exact product is negative and rounds
// to zero); the NaN and ±Inf planted beside it make NaN and ±Inf
// accumulators at every kc, and row 0's bias of −0 tells acc+0 from acc.
// The wrapper must refuse a short origin and a C too short for the last
// row it stores.
func checkDirectFinish(t *testing.T, kern *microKernels, kc int, pa []float32, offs []int, rng *RNG) {
	t.Helper()
	const maxPanels = 7
	mr, nr := kern.mr, kern.nr
	pa = append([]float32(nil), pa...)
	pa[0] = 1e-30
	origin := make([]float32, offs[kc-1]+maxPanels*nr)
	rng.FillUniform(origin, -1, 1)
	specials := []float32{-1e-30, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for j := 0; j < maxPanels*nr; j += 2 {
		origin[offs[0]+j] = specials[j/2%len(specials)]
	}
	for _, bn := range []bool{false, true} {
		for _, leaky := range []bool{false, true} {
			// packEpilogue's layout: μ, γ, inv, bias and slope, mr rows each.
			ep := make([]float32, 5*mr)
			for r := 0; r < mr; r++ {
				ep[r], ep[mr+r], ep[2*mr+r], ep[4*mr+r] = 0, 1, 1, 1
				if leaky {
					ep[4*mr+r] = LeakySlope
				}
			}
			if bn {
				rng.FillUniform(ep[:mr], -0.3, 0.3)
				rng.FillUniform(ep[mr:2*mr], 0.5, 1.5)
				rng.FillUniform(ep[2*mr:3*mr], 0.2, 2)
			}
			rng.FillUniform(ep[3*mr:4*mr], -0.5, 0.5)
			ep[3*mr] = float32(math.Copysign(0, -1))
			for rows := 1; rows <= mr; rows++ {
				for panels := 1; panels <= maxPanels; panels++ {
					for _, ldc := range []int{panels * nr, panels*nr + 7} {
						want := make([]float32, mr*ldc)
						rng.FillUniform(want, -1, 1)
						got := append([]float32(nil), want...)
						for q := 0; q < panels; q++ {
							tile := make([]float32, mr*nr)
							kern.f32Direct(kc, pa, origin[q*nr:], offs, tile, nr)
							for r := 0; r < rows; r++ {
								seg := tile[r*nr : (r+1)*nr]
								kern.epilogue(seg, ep[r], ep[mr+r], ep[2*mr+r], ep[3*mr+r], ep[4*mr+r])
								copy(want[r*ldc+q*nr:], seg)
							}
						}
						kern.f32DirectFinish(kc, pa, origin, offs, ep, got, ldc, rows, panels)
						for i := range want {
							if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
								t.Fatalf("%s finish kc=%d rows=%d panels=%d ldc=%d bn=%v leaky=%v: c[%d] = %v (%#x), direct + epilogue %v (%#x)",
									kern.name, kc, rows, panels, ldc, bn, leaky, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
							}
						}
					}
				}
			}
		}
	}
	for _, panels := range []int{1, 3, 6} {
		end := offs[kc-1] + panels*nr
		ep, c := make([]float32, 5*mr), make([]float32, mr*panels*nr)
		for _, short := range []struct {
			what      string
			origin, c []float32
			rows      int
		}{
			{"an origin too short for the last offset", origin[:end-1], c, mr},
			{"a C too short for the last row", origin[:end], c[:len(c)-1], mr},
			{"a C too short for the last row of a thin strip", origin[:end], c[:panels*nr-1], 1},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s kc=%d panels=%d: f32DirectFinish accepted %s without a panic", kern.name, kc, panels, short.what)
					}
				}()
				kern.f32DirectFinish(kc, pa, short.origin, offs, ep, short.c, panels*nr, short.rows, panels)
			}()
		}
	}
}
