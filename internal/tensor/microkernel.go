package tensor

// Register-blocked MR×NR microkernels: the innermost compute stage of the
// packed GEMM driver. Every kernel consumes the packed panel layouts
// produced by pack.go at its own MR/NR interleave (see kernel.go for the
// family registry and runtime dispatch) and computes one full MR×NR output
// tile per call; edge tiles are routed through a scratch tile by the
// driver, so kernels never see partial geometry.
//
// kernF32Go and kernI8Go are the portable 4×8 family: the only kernels on
// non-amd64 architectures and under the purego build tag, and the oracle
// the assembly family is cross-checked against. Every family accumulates
// in the same order (p ascending, pairwise for int8), so fp32 differs across
// families by FMA contraction on AVX2 only while int8 is bit-exact everywhere —
// integer accumulation is associative and every family requantizes with the
// same unfused multiply-then-add.

// portableMR×portableNR is the register tile of the portable Go kernels.
const (
	portableMR = 4
	portableNR = 8
)

// kernF32Go is the portable fp32 microkernel: four rows of NR-wide
// accumulators held in locals, one packed B load shared by all four rows
// per k-step.
func kernF32Go(kc int, pa, pb []float32, c []float32, ldc int) {
	var c0, c1, c2, c3 [portableNR]float32
	for p := 0; p < kc; p++ {
		a := pa[p*portableMR : p*portableMR+portableMR]
		b := pb[p*portableNR : p*portableNR+portableNR]
		a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
		for j := 0; j < portableNR; j++ {
			bv := b[j]
			c0[j] += a0 * bv
			c1[j] += a1 * bv
			c2[j] += a2 * bv
			c3[j] += a3 * bv
		}
	}
	for j := 0; j < portableNR; j++ {
		c[j] += c0[j]
	}
	for j := 0; j < portableNR; j++ {
		c[ldc+j] += c1[j]
	}
	for j := 0; j < portableNR; j++ {
		c[2*ldc+j] += c2[j]
	}
	for j := 0; j < portableNR; j++ {
		c[3*ldc+j] += c3[j]
	}
}

// kernI8Go is the portable int8 microkernel. Each k-pair contributes
// a0·b0 + a1·b1 computed in int32 before accumulation — exactly the
// dataflow of the PMADDWD/VPMADDWD kernels, so every family produces
// identical int32 sums (integer addition is associative, and int8 products
// cannot overflow the pairwise int16→int32 widening).
func kernI8Go(kPairs int, pa, pb []int16, requant, bias []float32, c []float32, ldc int) {
	var acc [portableMR][portableNR]int32
	for t := 0; t < kPairs; t++ {
		a := pa[t*2*portableMR : t*2*portableMR+2*portableMR]
		b := pb[t*2*portableNR : t*2*portableNR+2*portableNR]
		for r := 0; r < portableMR; r++ {
			a0 := int32(a[2*r])
			a1 := int32(a[2*r+1])
			row := &acc[r]
			for j := 0; j < portableNR; j++ {
				row[j] += a0*int32(b[2*j]) + a1*int32(b[2*j+1])
			}
		}
	}
	for r := 0; r < portableMR; r++ {
		scale, off := requant[r], bias[r]
		crow := c[r*ldc : r*ldc+portableNR]
		for j := 0; j < portableNR; j++ {
			crow[j] = float32(acc[r][j])*scale + off
		}
	}
}
