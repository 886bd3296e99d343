package tensor

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Microkernel dispatch. The packed GEMM driver (gemm.go, int8.go) is
// parametric over the register-tile shape: every pack-panel layout and tile
// decomposition is derived from the MR×NR of the selected microkernel
// family, so escalating the ISA is purely a matter of registering a wider
// kernel pair here — the blocking driver, the pre-packed weight layout
// (prepack.go) and the edge-tile handling never change.
//
// Selection is runtime, not build-time: amd64 binaries carry the AVX2
// (6×16) kernels, registered when the CPU supports AVX2+FMA with OS-enabled
// YMM state, while the portable Go kernels are always registered last as the
// universal fallback and cross-check oracle. The purego build tag registers
// only the portable family and SelectKernel pins one in tests, so both
// dispatch paths stay testable on any box: CI runs the full suite under
// -tags purego, and the cross-family tests and fuzz harness iterate every
// registered family.
//
// Switching families changes fp32 results only by reassociation (wider
// tiles and FMA contraction); the int8 kernels all compute the identical
// int32 pairwise dataflow with an identical mul-then-add requantization, so
// int8 results are bit-equal across every family.
//
// Besides the two tile kernels a family may carry nine vector forms of
// stages that are otherwise scalar Go: f32Direct and i8Direct (the fp32 and
// int8 tile kernels reading a full stride-1 convolution panel in place
// instead of from a packed copy), f32DirectFinish (f32Direct storing the
// finished, epilogued tiles of adjacent panels when the whole K fits one
// block, computing only the live rows of a strip), f32Rank1 (one im2col
// row's unfused update of every filter's C row, the sub-threshold
// convolution), epilogue (one C row of the fused BN/bias/leaky epilogue),
// maxPool2x2 (blocks of eight 2×2/2 max-pool outputs), ycbcrRow (blocks of
// eight YCbCr pixels converted to float RGB), fractions (groups of four
// JSON pixel fractions parsed to float32) and idct8x8 (one JPEG block's
// integer inverse DCT, level shift and clamp). Each reproduces the Go code it
// replaces bit for bit, and each follows the selected family like the tile
// kernels do: a nil entry — every entry of portable, so under
// SelectKernel("portable") or -tags purego — runs the Go code.

// microKernels describes one microkernel implementation family: the
// register-tile geometry and the fp32/int8 tile kernels that consume the
// MR/NR-interleaved packed panels of pack.go, plus the optional vector
// stages (nil when the family has none).
type microKernels struct {
	name string
	// mr×nr is the register tile computed by one kernel call.
	mr, nr int
	// f32 computes c[r*ldc+j] += Σ_p pa[p*mr+r]·pb[p*nr+j] over kc packed
	// k-steps for a full mr×nr tile.
	f32 func(kc int, pa, pb []float32, c []float32, ldc int)
	// i8 computes the full-k int8 tile with exact int32 accumulation over
	// kPairs packed k-pairs, then requantizes on store (overwrite):
	// c[r*ldc+j] = v·(slope if v's sign bit is set, else 1) with
	// v = float32(acc[r][j])·requant[r] + bias[r], each operation rounded
	// (no FMA). Slope 1 leaves v as it is; leaky-ReLU passes its slope.
	i8 func(kPairs int, pa, pb []int16, requant, bias []float32, slope float32, c []float32, ldc int)
	// i8Direct is i8 with k-pair t's nr B pairs read from origin[offs[t]:]
	// (offs ascending, in int16s) instead of pb, and only the first rows
	// rows (1 ≤ rows ≤ mr) stored — bit-identical to i8 on the panel
	// packBConvI8 would copy from those offsets (convint8.go).
	i8Direct func(kPairs int, pa, origin []int16, offs []int, requant, bias []float32, slope float32, c []float32, ldc, rows int)

	// f32Direct is f32 with k-step p's nr B values read from
	// origin[offs[p]:] instead of pb[p*nr:] — bit-identical to f32 on the
	// panel packBConvF32 would copy from those offsets (conv.go). Its panels
	// are the full stride-1 ones inside one output row whose windows clear
	// the padding: on a padded plane, every such panel.
	f32Direct func(kc int, pa, origin []float32, offs []int, c []float32, ldc int)
	// f32DirectFinish is f32Direct for a K that fits one block, finishing the
	// tiles in registers over panels adjacent direct panels of one output
	// row: panel q's k-step p reads origin[offs[p]+q·nr:] and stores to
	// c[q·nr:]. It overwrites C's first rows rows (1 ≤ rows ≤ mr) of each
	// panel with the epilogue of acc+0 instead of adding acc to C, and
	// computes the products of those rows only, so a strip of few live
	// filters costs only their work. ep holds the strip's per-row μ, γ, inv,
	// bias and slope, mr floats each, as packEpilogue lays them out
	// (conv.go); the result is bit-identical to f32Direct into a cleared C
	// followed by the epilogue row kernel, panel by panel.
	f32DirectFinish func(kc int, pa, origin []float32, offs []int, ep []float32, c []float32, ldc, rows, panels int)
	// f32Rank1 is rank1Go (conv.go): c[i·ldc+j] += float32(w[i]·row[j]) for
	// every j < len(row) and every i < len(w) whose w[i] is not zero, the
	// product rounded before the add — one tap of a sub-threshold
	// convolution across all its filters.
	f32Rank1 func(w, row, c []float32, ldc int)
	// epilogue applies seg[j] = v·(slope if v's sign bit is set, else 1) with
	// v = float32(gamma·(seg[j]−mu)·inv) + bias to one C row, as
	// Epilogue.apply's Go loop does (conv.go).
	epilogue func(seg []float32, mu, gamma, inv, bias, slope float32)
	// maxPool2x2 writes d[i] = max(r0[2i], r0[2i+1], r1[2i], r1[2i+1]) for
	// whole blocks of eight outputs and returns how many it wrote. It stops
	// before a tail shorter than eight and at the first block that holds a
	// NaN or whose maximum is ±0 or −Inf, leaving both to max2x2
	// (poolPlane2x2, pool.go).
	maxPool2x2 func(r0, r1, d []float32) int
	// ycbcrRow is the kernel YCbCrRowKernel returns.
	ycbcrRow func(y, cb, cr []byte, hs uint, r, g, b []float32) int
	// fractions is the kernel FractionsKernel returns.
	fractions func(buf []byte, pix []float32) (n, end int)
	// idct8x8 is the kernel IDCTKernel returns.
	idct8x8 func(blk *[64]int32, dst []byte, stride int)
}

// maxMR/maxNR bound the register-tile geometry any registered kernel may
// declare; the pooled edge-tile scratch (gemm.go) is sized by them.
const (
	maxMR = 8
	maxNR = 16
)

// portableKernels is the pure-Go family: always available, on every
// architecture and under the purego build tag, and the oracle the asm
// families are cross-checked against.
var portableKernels = &microKernels{name: "portable", mr: 4, nr: 8, f32: kernF32Go, i8: kernI8Go}

var (
	kernelOnce    sync.Once
	kernelList    []*microKernels // preference order, best first
	activeKernels atomic.Pointer[microKernels]
)

// initKernelList builds the registry (arch-specific families first, the
// portable Go family as the universal fallback) and selects the first. It
// runs once, lazily, before the first dispatch or registry query.
func initKernelList() {
	kernelList = append(archKernels(), portableKernels)
	for _, k := range kernelList {
		if k.mr > maxMR || k.nr > maxNR {
			panic(fmt.Sprintf("tensor: kernel %q tile %dx%d exceeds maxMR/maxNR %dx%d", k.name, k.mr, k.nr, maxMR, maxNR))
		}
	}
	activeKernels.Store(kernelList[0])
}

func kernelNames() []string {
	names := make([]string, len(kernelList))
	for i, k := range kernelList {
		names[i] = k.name
	}
	return names
}

// currentKernels returns the active microkernel family. Every Gemm call
// captures it once at entry, so a concurrent SelectKernel can never tear a
// single GEMM across two families.
func currentKernels() *microKernels {
	kernelOnce.Do(initKernelList)
	return activeKernels.Load()
}

// KernelName reports the active microkernel family: "avx2" or
// "portable". /healthz labels a server with it, which is how the
// benchmark harness attributes its committed runs to a dispatch path.
func KernelName() string {
	return currentKernels().name
}

// YCbCrRowKernel returns the selected family's vector kernel for a row of
// image.YCbCr pixels, or nil when the family has none. Pixel i is
// color.YCbCr{y[i], cb[i>>hs], cr[i>>hs]}; the kernel stores its RGBA
// channels v as float32(v)/65535 in r[i], g[i] and b[i] — the same bits as
// the Go expression — for whole blocks of eight pixels, and returns how many
// it wrote: len(r) rounded down to a multiple of eight, or 0 when hs is not
// 0 or 1.
func YCbCrRowKernel() func(y, cb, cr []byte, hs uint, r, g, b []float32) int {
	return currentKernels().ycbcrRow
}

// FractionsKernel returns the selected family's vector kernel for runs of
// JSON pixel fractions, or nil when the family has none. From buf[0] on it
// takes groups of four tokens, each "0.", one to fifteen digits and a
// comma, stores token k of a group as float32(m·10^-d) — m the digits'
// integer value, 10^-d the float64 nearest it, the product rounded once in
// float64 — in pix[k], and returns how many it stored and the offset just
// past the last comma it took. It stops before a group holding any other
// token or a product within eight float64 ulps of a float32 rounding
// midpoint, and when fewer than 96 bytes of buf or four slots of pix
// remain. These are the rules of the Go loop in internal/serve
// (fractionsSWAR), which takes whatever the kernel leaves.
func FractionsKernel() func(buf []byte, pix []float32) (n, end int) {
	return currentKernels().fractions
}

// IDCTKernel returns the selected family's vector kernel for one 8×8 block
// of a baseline JPEG, or nil when the family has none. blk holds the
// dequantised coefficients in natural (row-major) order; the kernel runs
// image/jpeg's fixed-point inverse DCT on them — the row pass, with its
// dc<<3 shortcut for a row whose seven AC coefficients are zero, then the
// column pass, in the same int32 arithmetic with the same wrap-around — and
// stores each result v as the byte clamp(v, −128, 127)+128 at
// dst[y·stride+x]. blk is left as it was; stride is at least 8 and dst
// holds 7·stride+8 bytes.
func IDCTKernel() func(blk *[64]int32, dst []byte, stride int) {
	return currentKernels().idct8x8
}

// AvailableKernels lists the registered families in preference order (the
// first entry is what auto-selection picks).
func AvailableKernels() []string {
	kernelOnce.Do(initKernelList)
	return kernelNames()
}

// SelectKernel switches the active microkernel family: one of the
// AvailableKernels names, or "" to re-run auto-selection (the best
// registered family). Unknown or
// unavailable names return an error and leave the selection unchanged.
//
// In-flight GEMMs are unaffected (each captures the family at entry), and
// pre-packed weights made for another family transparently fall back to
// on-the-fly packing, so switching is always safe — it is primarily a test
// and benchmarking hook; production processes select once at startup.
func SelectKernel(name string) error {
	kernelOnce.Do(initKernelList)
	if name == "" {
		activeKernels.Store(kernelList[0])
		return nil
	}
	for _, k := range kernelList {
		if k.name == name {
			activeKernels.Store(k)
			return nil
		}
	}
	return fmt.Errorf("tensor: kernel %q not available on this CPU/build (have %s)", name, strings.Join(kernelNames(), ","))
}
