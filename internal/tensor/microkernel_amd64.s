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

// AVX2_F32_FINISH_ROW stores one finished row of 16 floats at (DX). It
// forms acc+0 from the accumulators lo:hi (0+acc in AVX2_F32_ROW's operand
// order: what a cleared C plus acc holds), then runs epilogueRowAVX2's
// operations with their operands in its order: v−μ, γ·v, v·inv, v+bias,
// and v·slope blended in on the sign bit. The row's μ, γ, inv, bias and
// slope are at 0, 24, 48, 72 and 96(R11) (packEpilogue's layout for six
// rows); μ, γ, inv and bias are held in Y12–Y15.
#define AVX2_F32_FINISH_ROW(lo, hi) \
	VXORPS       Y12, Y12, Y12;   \
	VADDPS       lo, Y12, lo;     \
	VADDPS       hi, Y12, hi;     \
	VBROADCASTSS (R11), Y12;      \
	VBROADCASTSS 24(R11), Y13;    \
	VBROADCASTSS 48(R11), Y14;    \
	VBROADCASTSS 72(R11), Y15;    \
	VSUBPS       Y12, lo, lo;     \
	VSUBPS       Y12, hi, hi;     \
	VMULPS       lo, Y13, lo;     \
	VMULPS       hi, Y13, hi;     \
	VMULPS       Y14, lo, lo;     \
	VMULPS       Y14, hi, hi;     \
	VADDPS       Y15, lo, lo;     \
	VADDPS       Y15, hi, hi;     \
	VBROADCASTSS 96(R11), Y12;    \
	VMULPS       Y12, lo, Y13;    \
	VMULPS       Y12, hi, Y14;    \
	VBLENDVPS    lo, Y13, lo, lo; \
	VBLENDVPS    hi, Y14, hi, hi; \
	VMOVUPS      lo, (DX);        \
	VMOVUPS      hi, 32(DX)

// AVX2_F32_FINISH_NEXT leaves after the last requested row, or steps DX and
// R11 on to the next one.
#define AVX2_F32_FINISH_NEXT \
	DECQ BX;       \
	JZ   ad32done; \
	ADDQ R8, DX;   \
	ADDQ $4, R11

// func kernF32AVX2DirectAsm(kc int, pa, origin []float32, offs []int, ep []float32, c []float32, ldc, rows int)
//
// kernF32AVX2 with the B row of k-step p loaded from origin + offs[p]
// floats instead of the packed panel: the same loads and FMAs in the same
// order, so the accumulators are the packed kernel's bit for bit. rows 0
// adds them to C as kernF32AVX2 does; rows 1–6 overwrites C's first rows
// rows with AVX2_F32_FINISH_ROW and leaves the rest of C alone.
TEXT ·kernF32AVX2DirectAsm(SB), NOSPLIT, $0-144
	MOVQ kc+0(FP), CX
	MOVQ pa_base+8(FP), SI
	MOVQ origin_base+32(FP), DI
	MOVQ offs_base+56(FP), R9
	MOVQ ep_base+80(FP), R11
	MOVQ c_base+104(FP), DX
	MOVQ ldc+128(FP), R8
	MOVQ rows+136(FP), BX
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
	TESTQ BX, BX
	JNZ   ad32finish
	AVX2_F32_STORE
	VZEROUPPER
	RET

ad32finish:
	AVX2_F32_FINISH_ROW(Y0, Y1)
	AVX2_F32_FINISH_NEXT
	AVX2_F32_FINISH_ROW(Y2, Y3)
	AVX2_F32_FINISH_NEXT
	AVX2_F32_FINISH_ROW(Y4, Y5)
	AVX2_F32_FINISH_NEXT
	AVX2_F32_FINISH_ROW(Y6, Y7)
	AVX2_F32_FINISH_NEXT
	AVX2_F32_FINISH_ROW(Y8, Y9)
	AVX2_F32_FINISH_NEXT
	AVX2_F32_FINISH_ROW(Y10, Y11)

ad32done:
	VZEROUPPER
	RET

// AVX2_I8_STEP is one k-pair of the 6×16 int8 tile: the B pairs are in
// Y12:Y13, the six rows' packed-A pairs at (SI). Per row, VPBROADCASTD
// broadcasts its (a0,a1) pair, VPMADDWD against the two B halves yields the
// per-column int32 pair products, and VPADDD accumulates them exactly into
// Y0..Y11 (row r in Y(2r) cols 0-7, Y(2r+1) cols 8-15).
#define AVX2_I8_STEP \
	VPBROADCASTD (SI), Y14;    \
	VPMADDWD     Y12, Y14, Y15; \
	VPADDD       Y15, Y0, Y0;   \
	VPMADDWD     Y13, Y14, Y15; \
	VPADDD       Y15, Y1, Y1;   \
	VPBROADCASTD 4(SI), Y14;   \
	VPMADDWD     Y12, Y14, Y15; \
	VPADDD       Y15, Y2, Y2;   \
	VPMADDWD     Y13, Y14, Y15; \
	VPADDD       Y15, Y3, Y3;   \
	VPBROADCASTD 8(SI), Y14;   \
	VPMADDWD     Y12, Y14, Y15; \
	VPADDD       Y15, Y4, Y4;   \
	VPMADDWD     Y13, Y14, Y15; \
	VPADDD       Y15, Y5, Y5;   \
	VPBROADCASTD 12(SI), Y14;  \
	VPMADDWD     Y12, Y14, Y15; \
	VPADDD       Y15, Y6, Y6;   \
	VPMADDWD     Y13, Y14, Y15; \
	VPADDD       Y15, Y7, Y7;   \
	VPBROADCASTD 16(SI), Y14;  \
	VPMADDWD     Y12, Y14, Y15; \
	VPADDD       Y15, Y8, Y8;   \
	VPMADDWD     Y13, Y14, Y15; \
	VPADDD       Y15, Y9, Y9;   \
	VPBROADCASTD 20(SI), Y14;  \
	VPMADDWD     Y12, Y14, Y15; \
	VPADDD       Y15, Y10, Y10; \
	VPMADDWD     Y13, Y14, Y15; \
	VPADDD       Y15, Y11, Y11

// AVX2_I8_ROW stores the 16 finished floats of accumulators lo:hi at (DX):
// v = float32(acc)·requant + bias with the row's requant at (R9) and bias
// at (R10) — VCVTDQ2PS, then a separate VMULPS and VADDPS, never an FMA —
// then v·slope (slope in Y12) blended in on v's sign bit.
#define AVX2_I8_ROW(lo, hi) \
	VCVTDQ2PS    lo, lo;          \
	VCVTDQ2PS    hi, hi;          \
	VBROADCASTSS (R9), Y14;       \
	VBROADCASTSS (R10), Y15;      \
	VMULPS       Y14, lo, lo;     \
	VMULPS       Y14, hi, hi;     \
	VADDPS       Y15, lo, lo;     \
	VADDPS       Y15, hi, hi;     \
	VMULPS       Y12, lo, Y13;    \
	VMULPS       Y12, hi, Y14;    \
	VBLENDVPS    lo, Y13, lo, lo; \
	VBLENDVPS    hi, Y14, hi, hi; \
	VMOVUPS      lo, (DX);        \
	VMOVUPS      hi, 32(DX)

// AVX2_I8_NEXT leaves after the last requested row, or steps DX, R9 and
// R10 on to the next one.
#define AVX2_I8_NEXT \
	DECQ BX;       \
	JZ   ai8done;  \
	ADDQ R8, DX;   \
	ADDQ $4, R9;   \
	ADDQ $4, R10

// func kernI8AVX2Asm(kPairs int, pa, b []int16, offs []int, requant, bias []float32, slope float32, c []float32, ldc, rows int)
//
// The 6×16 int8 tile with exact int32 accumulation over kPairs k-pairs,
// finished on store by AVX2_I8_ROW into C's first rows rows (1–6). With
// offs empty, b is the packed panel and k-pair t's B pairs are its 32
// int16s at 64·t bytes; otherwise they are the 32 int16s at b + offs[t]
// int16s, a convolution panel read in place. The loads differ, the
// arithmetic does not.
TEXT ·kernI8AVX2Asm(SB), NOSPLIT, $0-176
	MOVQ kPairs+0(FP), CX
	MOVQ pa_base+8(FP), SI
	MOVQ b_base+32(FP), DI
	MOVQ offs_base+56(FP), R11
	MOVQ offs_len+64(FP), AX
	MOVQ requant_base+80(FP), R9
	MOVQ bias_base+104(FP), R10
	MOVQ c_base+136(FP), DX
	MOVQ ldc+160(FP), R8
	MOVQ rows+168(FP), BX
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
	TESTQ AX, AX
	JNZ   ai8direct

ai8loop:
	VMOVDQU (DI), Y12        // pb: cols 0-7 int16 pairs
	VMOVDQU 32(DI), Y13      // pb: cols 8-15 int16 pairs
	AVX2_I8_STEP
	ADDQ $24, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  ai8loop
	JMP  ai8store

ai8direct:
	MOVQ    (R11), AX        // offs[t]
	VMOVDQU (DI)(AX*2), Y12
	VMOVDQU 32(DI)(AX*2), Y13
	AVX2_I8_STEP
	ADDQ $24, SI
	ADDQ $8, R11
	DECQ CX
	JNZ  ai8direct

ai8store:
	VBROADCASTSS slope+128(FP), Y12
	AVX2_I8_ROW(Y0, Y1)
	AVX2_I8_NEXT
	AVX2_I8_ROW(Y2, Y3)
	AVX2_I8_NEXT
	AVX2_I8_ROW(Y4, Y5)
	AVX2_I8_NEXT
	AVX2_I8_ROW(Y6, Y7)
	AVX2_I8_NEXT
	AVX2_I8_ROW(Y8, Y9)
	AVX2_I8_NEXT
	AVX2_I8_ROW(Y10, Y11)

ai8done:
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

// YCBCR_STORE clamps the eight int32 channel values in v as RGBA does and
// stores them at (dst) as float32(v)/65535.
#define YCBCR_STORE(v, dst) \
	VPSRAD    $8, v, v;      \
	VPMAXSD   Y8, v, v;      \
	VPMINSD   Y9, v, v;      \
	VCVTDQ2PS v, v;          \
	VDIVPS    Y7, v, v;      \
	VMOVUPS   v, (dst)

// YCBCR_BLOCK converts the eight pixels whose Y bytes are at (SI) and whose
// widened chroma is in Y1 (Cb) and Y2 (Cr), storing R, G and B at (R10),
// (R11) and (R12), and steps SI and the three stores on.
#define YCBCR_BLOCK \
	VPMOVZXBD (SI), Y0;      \
	VPMULLD   Y15, Y0, Y0;   \
	VPSUBD    Y14, Y1, Y1;   \
	VPSUBD    Y14, Y2, Y2;   \
	VPMULLD   Y13, Y2, Y3;   \
	VPADDD    Y0, Y3, Y3;    \
	VPMULLD   Y12, Y1, Y4;   \
	VPMULLD   Y11, Y2, Y5;   \
	VPADDD    Y0, Y4, Y4;    \
	VPADDD    Y5, Y4, Y4;    \
	VPMULLD   Y10, Y1, Y1;   \
	VPADDD    Y0, Y1, Y1;    \
	YCBCR_STORE(Y3, R10);    \
	YCBCR_STORE(Y4, R11);    \
	YCBCR_STORE(Y1, R12);    \
	ADDQ      $8, SI;        \
	ADDQ      $32, R10;      \
	ADDQ      $32, R11;      \
	ADDQ      $32, R12

// func ycbcrRowAVX2Asm(y, cb, cr []byte, hs uint, r, g, b []float32)
//
// color.YCbCr.RGBA eight pixels a step, each channel stored as
// float32(v)/65535. Y and the chroma bytes widen with VPMOVZXBD; at hs 1 a
// block's four chroma bytes are first doubled by VPUNPCKLBW. The products
// and sums are RGBA's int32 arithmetic in VPMULLD and VPADDD (the sums stay
// far inside int32, so neither wrap nor order can differ). RGBA's clamp —
// v>>8 when 0 ≤ v < 2^24, 0 below, 0xffff above — is VPSRAD 8, VPMAXSD 0,
// VPMINSD 0xffff; VCVTDQ2PS is exact below 2^24 and VDIVPS rounds as the Go
// division does. len(r) is a positive multiple of 8; y, g and b are at least
// as long, cb and cr at least len(r)>>hs; hs is 0 or 1.
TEXT ·ycbcrRowAVX2Asm(SB), NOSPLIT, $0-152
	MOVQ         y_base+0(FP), SI
	MOVQ         cb_base+24(FP), R8
	MOVQ         cr_base+48(FP), R9
	MOVQ         hs+72(FP), BX
	MOVQ         r_base+80(FP), R10
	MOVQ         r_len+88(FP), CX
	MOVQ         g_base+104(FP), R11
	MOVQ         b_base+128(FP), R12
	SHRQ         $3, CX          // blocks of eight pixels
	MOVL         $0x10101, AX
	VMOVD        AX, X15
	VPBROADCASTD X15, Y15        // Y·0x10101
	MOVL         $128, AX
	VMOVD        AX, X14
	VPBROADCASTD X14, Y14        // chroma bias
	MOVL         $91881, AX
	VMOVD        AX, X13
	VPBROADCASTD X13, Y13        // R: +91881·Cr
	MOVL         $-22554, AX
	VMOVD        AX, X12
	VPBROADCASTD X12, Y12        // G: −22554·Cb
	MOVL         $-46802, AX
	VMOVD        AX, X11
	VPBROADCASTD X11, Y11        // G: −46802·Cr
	MOVL         $116130, AX
	VMOVD        AX, X10
	VPBROADCASTD X10, Y10        // B: +116130·Cb
	MOVL         $0xffff, AX
	VMOVD        AX, X9
	VPBROADCASTD X9, Y9          // clamp ceiling
	VPXOR        Y8, Y8, Y8      // clamp floor
	MOVL         $0x477fff00, AX // 65535.0
	VMOVD        AX, X7
	VPBROADCASTD X7, Y7
	TESTQ        BX, BX
	JNZ          ychalf

ycfull:
	VPMOVZXBD (R8), Y1
	VPMOVZXBD (R9), Y2
	ADDQ      $8, R8
	ADDQ      $8, R9
	YCBCR_BLOCK
	DECQ      CX
	JNZ       ycfull
	VZEROUPPER
	RET

ychalf:
	VMOVD      (R8), X1
	VMOVD      (R9), X2
	VPUNPCKLBW X1, X1, X1        // c0 c0 c1 c1 c2 c2 c3 c3
	VPUNPCKLBW X2, X2, X2
	VPMOVZXBD  X1, Y1
	VPMOVZXBD  X2, Y2
	ADDQ       $4, R8
	ADDQ       $4, R9
	YCBCR_BLOCK
	DECQ       CX
	JNZ        ychalf
	VZEROUPPER
	RET
