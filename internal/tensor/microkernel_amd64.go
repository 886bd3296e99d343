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
		name: "avx2", mr: 6, nr: 16, f32: kernF32AVX2, i8: kernI8AVX2, i8Direct: kernI8AVX2Direct,
		f32Direct: kernF32AVX2Direct, f32DirectFinish: kernF32AVX2DirectFinish,
		epilogue: epilogueRowAVX2, maxPool2x2: maxPool2x2AVX2, ycbcrRow: ycbcrRowAVX2,
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
	kernF32AVX2DirectAsm(kc, pa, origin, offs, nil, c, ldc, 0)
}

// kernF32AVX2DirectFinish is the avx2 f32DirectFinish entry (kernel.go):
// the same accumulation, then the epilogue of each of the first rows rows
// stored straight into C. The parameter block and C's last written element
// are checked here with the reads.
func kernF32AVX2DirectFinish(kc int, pa, origin []float32, offs []int, ep []float32, c []float32, ldc, rows int) {
	if rows < 1 || rows > 6 {
		panic("tensor: kernF32AVX2DirectFinish rows out of range")
	}
	_ = pa[6*kc-1]
	_ = origin[offs[kc-1]+15]
	_ = ep[5*6-1]
	_ = c[(rows-1)*ldc+15]
	kernF32AVX2DirectAsm(kc, pa, origin, offs, ep, c, ldc, rows)
}

// kernF32AVX2DirectAsm serves both direct entries: rows 0 adds all six
// accumulated rows to C, rows 1–6 stores the first rows finished rows.
//
//go:noescape
func kernF32AVX2DirectAsm(kc int, pa, origin []float32, offs []int, ep []float32, c []float32, ldc, rows int)

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

// ycbcrRowAVX2 is the avx2 ycbcrRow entry (kernel.go): the furthest byte
// and float it reads or writes are checked here.
func ycbcrRowAVX2(y, cb, cr []byte, hs uint, r, g, b []float32) int {
	n := len(r) &^ 7
	if n == 0 || hs > 1 {
		return 0
	}
	_ = y[n-1]
	_ = cb[(n-1)>>hs]
	_ = cr[(n-1)>>hs]
	_ = g[n-1]
	_ = b[n-1]
	ycbcrRowAVX2Asm(y, cb, cr, hs, r[:n], g, b)
	return n
}

//go:noescape
func ycbcrRowAVX2Asm(y, cb, cr []byte, hs uint, r, g, b []float32)

// kernI8AVX2 is the avx2 i8 entry (kernel.go): the 6×16 int8 tile over
// int16 k-pairs — VPBROADCASTD, VPMADDWD and VPADDD accumulate exactly —
// stored with VCVTDQ2PS then an UNFUSED multiply-then-add and the slope
// blend (bit-identical to the Go kernel — FMA here would change rounding
// and break the int8 exactness contract). The driver hands it full tiles.
func kernI8AVX2(kPairs int, pa, pb []int16, requant, bias []float32, slope float32, c []float32, ldc int) {
	kernI8AVX2Asm(kPairs, pa, pb, nil, requant, bias, slope, c, ldc, 6)
}

// kernI8AVX2Direct is the avx2 i8Direct entry (kernel.go). The assembly
// checks no bounds, so the furthest element each operand is read or
// written at is checked here first: offs ascend, so offs[kPairs-1] is the
// furthest B row.
func kernI8AVX2Direct(kPairs int, pa, origin []int16, offs []int, requant, bias []float32, slope float32, c []float32, ldc, rows int) {
	if rows < 1 || rows > 6 || kPairs < 1 {
		panic("tensor: kernI8AVX2Direct rows or k out of range")
	}
	_ = pa[12*kPairs-1]
	_ = origin[offs[kPairs-1]+31]
	_ = requant[rows-1]
	_ = bias[rows-1]
	_ = c[(rows-1)*ldc+15]
	kernI8AVX2Asm(kPairs, pa, origin, offs[:kPairs], requant, bias, slope, c, ldc, rows)
}

// kernI8AVX2Asm serves both int8 entries: an empty offs reads the packed
// panel b, a non-empty one reads b in place at the offsets; rows 1–6 rows
// of the finished tile are stored.
//
//go:noescape
func kernI8AVX2Asm(kPairs int, pa, b []int16, offs []int, requant, bias []float32, slope float32, c []float32, ldc, rows int)
