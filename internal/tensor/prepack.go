package tensor

import "sync/atomic"

// Pre-packed weight-side A operands. In the serving path the A matrix of
// every GEMM is a weight matrix that does not change between calls (fp32
// conv filters in inference mode, int8 quantized filters always), while B is
// the im2col view of fresh activations. The blocked driver normally re-packs
// A into MR-interleaved strips on every call; PackA/PackAInt8 perform that
// pack exactly once per model and GemmPrepacked/
// GemmInt8Prepacked — and ConvPrepacked (conv.go) and ConvPrepackedInt8
// (convint8.go), which read B straight from the activations — run the same
// tile stage against the shared read-only slab: steady-state packing traffic
// drops to the activation side only.
//
// The packed layout is the concatenation of the driver's per-K-panel packs:
// for each K panel [kk, kk+kc) (kc = min(kcBlock, k-kk)), nStrips strips of
// mr·kc elements. Because every panel before kk was exactly kcBlock deep,
// the panel for K-offset kk begins at element nStrips·mr·kk — the offset the
// driver uses to window into the slab. The int8 layout is the full-k pack
// (no K split): nStrips strips of mr·2·kPairs int16s.
//
// A packed buffer is only meaningful to the microkernel family it was packed
// for (the strip interleave is the family's MR). Each PackedA records its
// family; if dispatch changed since packing — SelectKernel mid-process, or a
// pinned test — the prepacked entry points transparently fall back to the
// on-the-fly path using the retained raw matrix. Results are identical
// either way; only the packing cost differs.

// PackedA is a pre-packed fp32 weight operand: op(A) with alpha folded in,
// packed at one kernel family's MR. Safe for concurrent use by any number of
// GEMMs once built (its pack is never written after PackA returns, and its
// tap-major copy is built once and published atomically), which is what
// lets every inference replica share one slab.
type PackedA struct {
	kern  *microKernels
	m, k  int
	alpha float32
	// Retained raw view for the fallback path when the active kernel family
	// no longer matches the packed layout.
	ta  bool
	a   []float32
	lda int

	data []float32
	// taps is alpha·op(A) tap by tap — k runs of m weights, the order a
	// sub-threshold convolution reads them in — built by the first one
	// (tapMajor), so only packs that run below packThreshold hold it.
	taps atomic.Pointer[[]float32]
}

// tapMajor returns pa.taps, building it on the first call. Callers racing
// on that call build equal tables and all return the one published first.
func (pa *PackedA) tapMajor() []float32 {
	if t := pa.taps.Load(); t != nil {
		return *t
	}
	t := make([]float32, pa.m*pa.k)
	for i := 0; i < pa.m; i++ {
		for p := 0; p < pa.k; p++ {
			t[p*pa.m+i] = pa.alpha * aAt(pa.ta, pa.a, pa.lda, i, p)
		}
	}
	pa.taps.CompareAndSwap(nil, &t)
	return *pa.taps.Load()
}

// PackA packs the m×k matrix op(A) (alpha folded in) for the active
// microkernel family. The returned PackedA borrows a — the caller must not
// mutate the matrix while the pack is in use (repack instead; see the
// invalidation hooks in internal/layers).
func PackA(ta bool, m, k int, alpha float32, a []float32, lda int) *PackedA {
	kern := currentKernels()
	nStrips := (m + kern.mr - 1) / kern.mr
	pa := &PackedA{kern: kern, m: m, k: k, alpha: alpha, ta: ta, a: a, lda: lda,
		data: make([]float32, nStrips*kern.mr*k)}
	packAPanels(ta, a, lda, m, k, alpha, pa.data, kern.mr)
	return pa
}

// packAPanels packs all of op(A) into dst (len nStrips·mr·k) in the PackedA
// layout: the driver's per-K-panel packs, concatenated.
func packAPanels(ta bool, a []float32, lda, m, k int, alpha float32, dst []float32, mr int) {
	nStrips := (m + mr - 1) / mr
	for kk := 0; kk < k; kk += kcBlock {
		kc := min(kcBlock, k-kk)
		base := nStrips * mr * kk
		for s := 0; s < nStrips; s++ {
			packAF32(ta, a, lda, m, s*mr, kk, kc, alpha, dst[base+s*mr*kc:base+(s+1)*mr*kc], mr)
		}
	}
}

// M returns the packed operand's row count.
func (pa *PackedA) M() int { return pa.m }

// K returns the packed operand's inner dimension.
func (pa *PackedA) K() int { return pa.k }

// Bytes reports the resident size of the packed slab, for the memory
// accounting surfaces (WeightBytes, /healthz).
func (pa *PackedA) Bytes() int64 { return int64(len(pa.data)) * 4 }

// GemmPrepacked computes C = pre·op(B) + beta·C where pre is a PackedA
// (alpha was folded at pack time). Numerically identical to the equivalent
// Gemm call — same blocking, same kernels, same accumulation order — it only
// skips the per-call A pack. Falls back to Gemm when the problem is below
// the packing threshold or the active kernel family no longer matches the
// pack.
func GemmPrepacked(pre *PackedA, tb bool, n int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	m, k := pre.m, pre.k
	if int64(m)*int64(n)*int64(k) < packThreshold {
		Gemm(pre.ta, tb, m, n, k, pre.alpha, pre.a, pre.lda, b, ldb, beta, c, ldc)
		return
	}
	kern := currentKernels()
	if kern != pre.kern {
		Gemm(pre.ta, tb, m, n, k, pre.alpha, pre.a, pre.lda, b, ldb, beta, c, ldc)
		return
	}
	gemmScaleC(beta, m, n, c, ldc)
	if pre.alpha == 0 {
		return
	}
	gemmPacked(kern, pre.ta, tb, m, n, k, pre.alpha, pre.a, pre.lda, b, ldb, c, ldc, pre.data)
}

// PackedAInt8 is a pre-packed int8 weight operand: sign-extended int16
// k-pairs at one kernel family's MR interleave. Read-only after build;
// shared freely across replicas.
type PackedAInt8 struct {
	kern   *microKernels
	m, k   int
	kPairs int
	a      []int8
	lda    int

	data []int16
}

// PackAInt8 packs the m×k int8 matrix A (row-major, no transpose — the
// quantized weights) for the active microkernel family. The returned pack
// borrows a; quantized weights are immutable after Quantize, so no
// invalidation hook is needed.
func PackAInt8(m, k int, a []int8, lda int) *PackedAInt8 {
	kern := currentKernels()
	kPairs := (k + 1) / 2
	nStrips := (m + kern.mr - 1) / kern.mr
	pa := &PackedAInt8{kern: kern, m: m, k: k, kPairs: kPairs, a: a, lda: lda,
		data: make([]int16, nStrips*kern.mr*2*kPairs)}
	stripLen := kern.mr * 2 * kPairs
	for s := 0; s < nStrips; s++ {
		packAI8(a, lda, m, k, s*kern.mr, pa.data[s*stripLen:(s+1)*stripLen], kern.mr)
	}
	return pa
}

// M returns the packed operand's row count.
func (pa *PackedAInt8) M() int { return pa.m }

// K returns the packed operand's inner dimension.
func (pa *PackedAInt8) K() int { return pa.k }

// Bytes reports the resident size of the packed slab.
func (pa *PackedAInt8) Bytes() int64 { return int64(len(pa.data)) * 2 }

// GemmInt8Prepacked computes C = requant ⊙ (pre·B) + bias, bit-identical to
// the equivalent GemmInt8 call (integer accumulation is associative, and the
// pre-pack holds exactly the values the per-call pack would produce). Falls
// back to GemmInt8 below the packing threshold or on a kernel-family
// mismatch.
func GemmInt8Prepacked(pre *PackedAInt8, n int, b []int8, ldb int, requant, bias []float32, c []float32, ldc int) {
	m, k := pre.m, pre.k
	if int64(m)*int64(n)*int64(k) < packThreshold {
		gemmInt8Naive(m, n, k, pre.a, pre.lda, b, ldb, requant, bias, c, ldc)
		return
	}
	kern := currentKernels()
	if kern != pre.kern {
		gemmInt8Packed(kern, m, n, k, pre.a, pre.lda, b, ldb, requant, bias, c, ldc, nil)
		return
	}
	gemmInt8Packed(kern, m, n, k, pre.a, pre.lda, b, ldb, requant, bias, c, ldc, pre.data)
}
