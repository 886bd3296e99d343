//go:build amd64 && !purego

package tensor

// amd64 registers the 6×16 AVX2/FMA assembly family, and only when CPUID
// reports AVX2+FMA and XGETBV confirms the OS saves YMM state. A CPU without
// AVX2 runs the portable Go kernels, as does the `purego` build tag, which
// CI runs so the fallback cannot rot behind the fast path.

// archKernels returns the amd64 assembly families in preference order.
func archKernels() []*microKernels {
	if !cpuHasAVX2FMA() {
		return nil
	}
	return []*microKernels{{
		name: "avx2", mr: 6, nr: 16, f32: kernF32AVX2, i8: kernI8AVX2,
		f32Direct: kernF32AVX2Direct, epilogue: epilogueRowAVX2, maxPool2x2: maxPool2x2AVX2,
	}}
}

// cpuHasAVX2FMA reports whether this CPU can run the AVX2 family: AVX2 and
// FMA instruction support plus OSXSAVE with XMM|YMM state enabled in XCR0
// (without which AVX instructions #UD even when CPUID advertises them).
func cpuHasAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const osxsave, avx, fma = 1 << 27, 1 << 28, 1 << 12
	if ecx1&osxsave == 0 || ecx1&avx == 0 || ecx1&fma == 0 {
		return false
	}
	xcr0, _ := xgetbv0()
	if xcr0&6 != 6 { // XMM and YMM state both OS-managed
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// cpuidex executes CPUID with the given leaf/subleaf.
//
//go:noescape
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (requires OSXSAVE).
//
//go:noescape
func xgetbv0() (eax, edx uint32)

// kernF32AVX2 is the 6×16 AVX2/FMA tile kernel: 12 YMM accumulators (six
// rows × two 8-lane column halves), two packed-B YMM loads and six
// VBROADCASTSS feeding twelve VFMADD231PS per k-step. C is updated with +=.
//
//go:noescape
func kernF32AVX2(kc int, pa, pb []float32, c []float32, ldc int)

// kernF32AVX2Direct is kernF32AVX2 with k-step p's two B loads taken from
// origin[offs[p]:] — a stride-1 convolution panel read where it lies. The
// assembly checks no bounds, so the furthest element each operand is read
// at is checked here first: taps ascend, so offs[kc-1] is the furthest row.
func kernF32AVX2Direct(kc int, pa, origin []float32, offs []int, c []float32, ldc int) {
	_ = pa[6*kc-1]
	_ = origin[offs[kc-1]+15]
	_ = c[5*ldc+15]
	kernF32AVX2DirectAsm(kc, pa, origin, offs, c, ldc)
}

//go:noescape
func kernF32AVX2DirectAsm(kc int, pa, origin []float32, offs []int, c []float32, ldc int)

// epilogueRowAVX2 is one C row of Epilogue.apply eight floats a step:
// VSUBPS μ, VMULPS γ, VMULPS inv, VADDPS bias, then VMULPS slope blended
// in by the sign bit — the Go expression's operations in its order, no
// FMA — with a scalar VEX tail for the last len(seg)%8.
//
//go:noescape
func epilogueRowAVX2(seg []float32, mu, gamma, inv, bias, slope float32)

// maxPool2x2AVX2 is the avx2 maxPool2x2 entry (kernel.go): the reads it
// makes, two inputs per output on each row, are checked here.
func maxPool2x2AVX2(r0, r1, d []float32) int {
	n := len(d) &^ 7
	if n == 0 {
		return 0
	}
	_ = r0[2*n-1]
	_ = r1[2*n-1]
	return maxPool2x2AVX2Asm(r0, r1, d[:n])
}

//go:noescape
func maxPool2x2AVX2Asm(r0, r1, d []float32) int

// kernI8AVX2 is the 6×16 AVX2 int8 tile kernel over int16 k-pairs:
// VPBROADCASTD broadcasts one row's k-pair, VPMADDWD forms the pairwise
// int32 products against two 16-pair packed-B YMM loads, VPADDD accumulates
// exactly, and the store path requantizes with VCVTDQ2PS then an UNFUSED
// multiply-then-add (bit-identical to the naive Go loop — FMA here would
// change rounding and break the int8 exactness contract).
//
//go:noescape
func kernI8AVX2(kPairs int, pa, pb []int16, requant, bias []float32, c []float32, ldc int)
