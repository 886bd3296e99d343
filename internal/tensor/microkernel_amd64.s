//go:build amd64 && !purego

#include "textflag.h"

// Encoding rule: a function that touches a YMM register uses VEX encodings
// only (VMOVD, VMOVSS, VBROADCASTSS — never MOVD, MOVSS or any other
// legacy-SSE form) and ends with VZEROUPPER. One legacy-SSE instruction
// while the upper YMM halves are dirty costs an SSE/AVX state transition of
// roughly 150 ns, more than a whole pool row.

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// AVX2_F32_STEP is one k-step of the 6×16 fp32 tile: the B row is in
// Y12:Y13, the six packed-A values at (SI); six VBROADCASTSS feed twelve
// VFMADD231PS into the accumulators Y0..Y11 (row r in Y(2r) cols 0-7,
// Y(2r+1) cols 8-15).
#define AVX2_F32_STEP \
	VBROADCASTSS (SI), Y14;   \
	VFMADD231PS  Y12, Y14, Y0; \
	VFMADD231PS  Y13, Y14, Y1; \
	VBROADCASTSS 4(SI), Y14;  \
	VFMADD231PS  Y12, Y14, Y2; \
	VFMADD231PS  Y13, Y14, Y3; \
	VBROADCASTSS 8(SI), Y14;  \
	VFMADD231PS  Y12, Y14, Y4; \
	VFMADD231PS  Y13, Y14, Y5; \
	VBROADCASTSS 12(SI), Y14; \
	VFMADD231PS  Y12, Y14, Y6; \
	VFMADD231PS  Y13, Y14, Y7; \
	VBROADCASTSS 16(SI), Y14; \
	VFMADD231PS  Y12, Y14, Y8; \
	VFMADD231PS  Y13, Y14, Y9; \
	VBROADCASTSS 20(SI), Y14; \
	VFMADD231PS  Y12, Y14, Y10; \
	VFMADD231PS  Y13, Y14, Y11

// AVX2_F32_ROW adds accumulators lo:hi to the 16 floats of C at (DX).
#define AVX2_F32_ROW(lo, hi) \
	VMOVUPS (DX), Y12;       \
	VMOVUPS 32(DX), Y13;     \
	VADDPS  lo, Y12, Y12;    \
	VADDPS  hi, Y13, Y13;    \
	VMOVUPS Y12, (DX);       \
	VMOVUPS Y13, 32(DX)

// AVX2_F32_STORE adds the six accumulated rows to C at (DX), row stride R8
// bytes.
#define AVX2_F32_STORE \
	AVX2_F32_ROW(Y0, Y1);   \
	ADDQ R8, DX;            \
	AVX2_F32_ROW(Y2, Y3);   \
	ADDQ R8, DX;            \
	AVX2_F32_ROW(Y4, Y5);   \
	ADDQ R8, DX;            \
	AVX2_F32_ROW(Y6, Y7);   \
	ADDQ R8, DX;            \
	AVX2_F32_ROW(Y8, Y9);   \
	ADDQ R8, DX;            \
	AVX2_F32_ROW(Y10, Y11)

#define AVX2_F32_ZERO \
	VXORPS Y0, Y0, Y0;    \
	VXORPS Y1, Y1, Y1;    \
	VXORPS Y2, Y2, Y2;    \
	VXORPS Y3, Y3, Y3;    \
	VXORPS Y4, Y4, Y4;    \
	VXORPS Y5, Y5, Y5;    \
	VXORPS Y6, Y6, Y6;    \
	VXORPS Y7, Y7, Y7;    \
	VXORPS Y8, Y8, Y8;    \
	VXORPS Y9, Y9, Y9;    \
	VXORPS Y10, Y10, Y10; \
	VXORPS Y11, Y11, Y11

// func kernF32AVX2(kc int, pa, pb []float32, c []float32, ldc int)
//
// Computes the 6×16 tile update c[r*ldc+j] += Σ_p pa[p*6+r]·pb[p*16+j].
// Per k-step: two 32-byte B loads and AVX2_F32_STEP — one fused
// multiply-add per accumulator, so the products are contracted (fp32
// results differ from the portable family by reassociation/contraction
// rounding only).
TEXT ·kernF32AVX2(SB), NOSPLIT, $0-88
	MOVQ kc+0(FP), CX
	MOVQ pa_base+8(FP), SI
	MOVQ pb_base+32(FP), DI
	MOVQ c_base+56(FP), DX
	MOVQ ldc+80(FP), R8
	SHLQ $2, R8              // row stride in bytes
	AVX2_F32_ZERO

	TESTQ CX, CX
	JZ    af32store

af32loop:
	VMOVUPS (DI), Y12        // pb[p*16 + 0..7]
	VMOVUPS 32(DI), Y13      // pb[p*16 + 8..15]
	AVX2_F32_STEP
	ADDQ $24, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  af32loop

af32store:
	AVX2_F32_STORE
	VZEROUPPER
	RET

// func kernF32AVX2DirectAsm(kc int, pa, origin []float32, offs []int, c []float32, ldc int)
//
// kernF32AVX2 with the B row of k-step p loaded from origin + offs[p]
// floats instead of the packed panel: the same loads, FMAs and stores in
// the same order, so the result is the packed kernel's bit for bit.
TEXT ·kernF32AVX2DirectAsm(SB), NOSPLIT, $0-112
	MOVQ kc+0(FP), CX
	MOVQ pa_base+8(FP), SI
	MOVQ origin_base+32(FP), DI
	MOVQ offs_base+56(FP), R9
	MOVQ c_base+80(FP), DX
	MOVQ ldc+104(FP), R8
	SHLQ $2, R8              // row stride in bytes
	AVX2_F32_ZERO

	TESTQ CX, CX
	JZ    ad32store

ad32loop:
	MOVQ    (R9), R10        // offs[p]
	VMOVUPS (DI)(R10*4), Y12
	VMOVUPS 32(DI)(R10*4), Y13
	AVX2_F32_STEP
	ADDQ $24, SI
	ADDQ $8, R9
	DECQ CX
	JNZ  ad32loop

ad32store:
	AVX2_F32_STORE
	VZEROUPPER
	RET

// func kernI8AVX2(kPairs int, pa, pb []int16, requant, bias []float32, c []float32, ldc int)
//
// Computes the 6×16 int8 tile with exact int32 accumulation over packed
// int16 k-pairs: per pair, VPBROADCASTD broadcasts one row's (a0,a1) pair,
// VPMADDWD against the two 16-pair packed-B loads yields the per-column
// int32 pair-products, VPADDD accumulates. The store path requantizes with
// VCVTDQ2PS then separate VMULPS + VADDPS — deliberately NOT an FMA, so
// c[r*ldc+j] = float32(acc)·requant[r] + bias[r] rounds exactly like the
// naive Go loop and results stay bit-identical across every kernel family.
TEXT ·kernI8AVX2(SB), NOSPLIT, $0-136
	MOVQ kPairs+0(FP), CX
	MOVQ pa_base+8(FP), SI
	MOVQ pb_base+32(FP), DI
	MOVQ requant_base+56(FP), R9
	MOVQ bias_base+80(FP), R10
	MOVQ c_base+104(FP), DX
	MOVQ ldc+128(FP), R8
	SHLQ $2, R8              // row stride in bytes

	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	VPXOR Y8, Y8, Y8
	VPXOR Y9, Y9, Y9
	VPXOR Y10, Y10, Y10
	VPXOR Y11, Y11, Y11

	TESTQ CX, CX
	JZ    ai8store

ai8loop:
	VMOVDQU (DI), Y12        // pb: cols 0-7 int16 pairs
	VMOVDQU 32(DI), Y13      // pb: cols 8-15 int16 pairs

	VPBROADCASTD (SI), Y14   // row-0 pair
	VPMADDWD     Y12, Y14, Y15
	VPADDD       Y15, Y0, Y0
	VPMADDWD     Y13, Y14, Y15
	VPADDD       Y15, Y1, Y1

	VPBROADCASTD 4(SI), Y14  // row 1
	VPMADDWD     Y12, Y14, Y15
	VPADDD       Y15, Y2, Y2
	VPMADDWD     Y13, Y14, Y15
	VPADDD       Y15, Y3, Y3

	VPBROADCASTD 8(SI), Y14  // row 2
	VPMADDWD     Y12, Y14, Y15
	VPADDD       Y15, Y4, Y4
	VPMADDWD     Y13, Y14, Y15
	VPADDD       Y15, Y5, Y5

	VPBROADCASTD 12(SI), Y14 // row 3
	VPMADDWD     Y12, Y14, Y15
	VPADDD       Y15, Y6, Y6
	VPMADDWD     Y13, Y14, Y15
	VPADDD       Y15, Y7, Y7

	VPBROADCASTD 16(SI), Y14 // row 4
	VPMADDWD     Y12, Y14, Y15
	VPADDD       Y15, Y8, Y8
	VPMADDWD     Y13, Y14, Y15
	VPADDD       Y15, Y9, Y9

	VPBROADCASTD 20(SI), Y14 // row 5
	VPMADDWD     Y12, Y14, Y15
	VPADDD       Y15, Y10, Y10
	VPMADDWD     Y13, Y14, Y15
	VPADDD       Y15, Y11, Y11

	ADDQ $24, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  ai8loop

ai8store:
	VCVTDQ2PS    Y0, Y0      // row 0: float32(acc)·requant + bias
	VCVTDQ2PS    Y1, Y1
	VBROADCASTSS (R9), Y14
	VBROADCASTSS (R10), Y15
	VMULPS       Y14, Y0, Y0
	VMULPS       Y14, Y1, Y1
	VADDPS       Y15, Y0, Y0
	VADDPS       Y15, Y1, Y1
	VMOVUPS      Y0, (DX)
	VMOVUPS      Y1, 32(DX)
	ADDQ         R8, DX

	VCVTDQ2PS    Y2, Y2      // row 1
	VCVTDQ2PS    Y3, Y3
	VBROADCASTSS 4(R9), Y14
	VBROADCASTSS 4(R10), Y15
	VMULPS       Y14, Y2, Y2
	VMULPS       Y14, Y3, Y3
	VADDPS       Y15, Y2, Y2
	VADDPS       Y15, Y3, Y3
	VMOVUPS      Y2, (DX)
	VMOVUPS      Y3, 32(DX)
	ADDQ         R8, DX

	VCVTDQ2PS    Y4, Y4      // row 2
	VCVTDQ2PS    Y5, Y5
	VBROADCASTSS 8(R9), Y14
	VBROADCASTSS 8(R10), Y15
	VMULPS       Y14, Y4, Y4
	VMULPS       Y14, Y5, Y5
	VADDPS       Y15, Y4, Y4
	VADDPS       Y15, Y5, Y5
	VMOVUPS      Y4, (DX)
	VMOVUPS      Y5, 32(DX)
	ADDQ         R8, DX

	VCVTDQ2PS    Y6, Y6      // row 3
	VCVTDQ2PS    Y7, Y7
	VBROADCASTSS 12(R9), Y14
	VBROADCASTSS 12(R10), Y15
	VMULPS       Y14, Y6, Y6
	VMULPS       Y14, Y7, Y7
	VADDPS       Y15, Y6, Y6
	VADDPS       Y15, Y7, Y7
	VMOVUPS      Y6, (DX)
	VMOVUPS      Y7, 32(DX)
	ADDQ         R8, DX

	VCVTDQ2PS    Y8, Y8      // row 4
	VCVTDQ2PS    Y9, Y9
	VBROADCASTSS 16(R9), Y14
	VBROADCASTSS 16(R10), Y15
	VMULPS       Y14, Y8, Y8
	VMULPS       Y14, Y9, Y9
	VADDPS       Y15, Y8, Y8
	VADDPS       Y15, Y9, Y9
	VMOVUPS      Y8, (DX)
	VMOVUPS      Y9, 32(DX)
	ADDQ         R8, DX

	VCVTDQ2PS    Y10, Y10    // row 5
	VCVTDQ2PS    Y11, Y11
	VBROADCASTSS 20(R9), Y14
	VBROADCASTSS 20(R10), Y15
	VMULPS       Y14, Y10, Y10
	VMULPS       Y14, Y11, Y11
	VADDPS       Y15, Y10, Y10
	VADDPS       Y15, Y11, Y11
	VMOVUPS      Y10, (DX)
	VMOVUPS      Y11, 32(DX)
	VZEROUPPER
	RET

// func epilogueRowAVX2(seg []float32, mu, gamma, inv, bias, slope float32)
//
// seg[j] = v·(slope if v's sign bit is set, else 1) with
// v = γ·(seg[j]−μ)·inv + bias, each operation rounded as Epilogue.apply's Go
// expression rounds it (no FMA). v·1 is v, so the blend selects between v
// and v·slope on v's sign bit instead of multiplying by a looked-up factor.
// Eight floats a step; the last len(seg)%8 run the same sequence on the low
// lane with VEX scalar ops.
TEXT ·epilogueRowAVX2(SB), NOSPLIT, $0-44
	MOVQ         seg_base+0(FP), DI
	MOVQ         seg_len+8(FP), CX
	VBROADCASTSS mu+24(FP), Y1
	VBROADCASTSS gamma+28(FP), Y2
	VBROADCASTSS inv+32(FP), Y3
	VBROADCASTSS bias+36(FP), Y4
	VBROADCASTSS slope+40(FP), Y5
	CMPQ         CX, $8
	JB           eptail

eploop:
	VMOVUPS   (DI), Y0
	VSUBPS    Y1, Y0, Y0         // v − μ
	VMULPS    Y0, Y2, Y0         // γ·(v − μ)
	VMULPS    Y3, Y0, Y0         // ·inv
	VADDPS    Y4, Y0, Y0         // + bias
	VMULPS    Y5, Y0, Y6         // v·slope
	VBLENDVPS Y0, Y6, Y0, Y0     // sign bit set ? v·slope : v
	VMOVUPS   Y0, (DI)
	ADDQ      $32, DI
	SUBQ      $8, CX
	CMPQ      CX, $8
	JAE       eploop

eptail:
	TESTQ CX, CX
	JZ    epdone

eptailloop:
	VMOVSS    (DI), X0
	VSUBSS    X1, X0, X0
	VMULSS    X0, X2, X0
	VMULSS    X3, X0, X0
	VADDSS    X4, X0, X0
	VMULSS    X5, X0, X6
	VBLENDVPS X0, X6, X0, X0
	VMOVSS    X0, (DI)
	ADDQ      $4, DI
	DECQ      CX
	JNZ       eptailloop

epdone:
	VZEROUPPER
	RET

// func maxPool2x2AVX2Asm(r0, r1, d []float32) int
//
// Eight 2×2/2 pool outputs a step from sixteen floats of each input row:
// VMAXPS of the two rows, VSHUFPS $0x88/$0xDD to split even and odd columns
// (per 128-bit lane: outputs 0,1,4,5 low and 2,3,6,7 high), VMAXPS of the
// halves, VPERMPD $0xD8 to restore column order. VMAXPS answers its second
// operand on a NaN or on equal zeros, so it can differ from the layer's
// exact window rule only when an input is NaN (VCMPPS unordered) or the
// maximum is ±0 or −Inf (VCMPPS equal); such a block is not stored and the
// count of outputs written so far is returned. len(d) is a multiple of 8.
TEXT ·maxPool2x2AVX2Asm(SB), NOSPLIT, $0-80
	MOVQ         r0_base+0(FP), SI
	MOVQ         r1_base+24(FP), DI
	MOVQ         d_base+48(FP), DX
	MOVQ         d_len+56(FP), CX
	SHRQ         $3, CX          // blocks of eight outputs
	XORQ         AX, AX          // outputs written
	VXORPS       Y15, Y15, Y15   // +0: equal to either zero
	MOVL         $0xff800000, R8
	VMOVD        R8, X14
	VPBROADCASTD X14, Y14        // −Inf
	TESTQ        CX, CX
	JZ           pooldone

poolloop:
	VMOVUPS   (SI), Y0           // r0[2i .. 2i+7]
	VMOVUPS   32(SI), Y1         // r0[2i+8 .. 2i+15]
	VMOVUPS   (DI), Y2           // r1[2i .. 2i+7]
	VMOVUPS   32(DI), Y3         // r1[2i+8 .. 2i+15]
	VCMPPS    $3, Y2, Y0, Y4     // unordered: a NaN on either row
	VCMPPS    $3, Y3, Y1, Y5
	VORPS     Y5, Y4, Y4
	VMAXPS    Y2, Y0, Y0         // vertical maxima
	VMAXPS    Y3, Y1, Y1
	VSHUFPS   $0x88, Y1, Y0, Y2  // even columns
	VSHUFPS   $0xDD, Y1, Y0, Y3  // odd columns
	VMAXPS    Y3, Y2, Y0
	VPERMPD   $0xD8, Y0, Y0      // outputs 0..7 in order
	VCMPPS    $0, Y15, Y0, Y5    // maximum ±0
	VORPS     Y5, Y4, Y4
	VCMPPS    $0, Y14, Y0, Y5    // maximum −Inf
	VORPS     Y5, Y4, Y4
	VMOVMSKPS Y4, R9
	TESTL     R9, R9
	JNZ       pooldone
	VMOVUPS   Y0, (DX)(AX*4)
	ADDQ      $64, SI
	ADDQ      $64, DI
	ADDQ      $8, AX
	DECQ      CX
	JNZ       poolloop

pooldone:
	MOVQ AX, ret+72(FP)
	VZEROUPPER
	RET
