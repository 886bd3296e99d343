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

// AVX2_F32_ROWSTEP is one row of a k-step of the fp32 tile: the B row is
// in Y12:Y13, the row's packed-A value at off(SI); VBROADCASTSS feeds two
// VFMADD231PS into the row's accumulators lo:hi.
#define AVX2_F32_ROWSTEP(off, lo, hi) \
	VBROADCASTSS off(SI), Y14;  \
	VFMADD231PS  Y12, Y14, lo;  \
	VFMADD231PS  Y13, Y14, hi

// AVX2_F32_STEP is one k-step of the 6×16 fp32 tile: six AVX2_F32_ROWSTEPs
// into the accumulators Y0..Y11 (row r in Y(2r) cols 0-7, Y(2r+1) cols
// 8-15).
#define AVX2_F32_STEP \
	AVX2_F32_ROWSTEP(0, Y0, Y1);   \
	AVX2_F32_ROWSTEP(4, Y2, Y3);   \
	AVX2_F32_ROWSTEP(8, Y4, Y5);   \
	AVX2_F32_ROWSTEP(12, Y6, Y7);  \
	AVX2_F32_ROWSTEP(16, Y8, Y9);  \
	AVX2_F32_ROWSTEP(20, Y10, Y11)

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

// AVX2_F32_FINISH_AT stores 16 finished floats at o0(DX) and o1(DX). It
// forms acc+0 from the accumulators lo:hi (0+acc in AVX2_F32_ROW's operand
// order: what a cleared C plus acc holds), then runs epilogueRowAVX2's
// operations with their operands in its order: v−μ, γ·v, v·inv, v+bias,
// and v·slope blended in on the sign bit. The row's μ, γ, inv, bias and
// slope are at 0, 24, 48, 72 and 96(R11) (packEpilogue's layout for six
// rows); μ, γ, inv and bias are held in Y12–Y15.
#define AVX2_F32_FINISH_AT(lo, hi, o0, o1) \
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
	VMOVUPS      lo, o0(DX);      \
	VMOVUPS      hi, o1(DX)

// AVX2_F32_FINISH_ROW stores one finished row of 16 floats at (DX).
#define AVX2_F32_FINISH_ROW(lo, hi) AVX2_F32_FINISH_AT(lo, hi, 0, 32)

// AVX2_F32_FINISH_NEXT leaves after the last requested row, or steps DX and
// R11 on to the next one.
#define AVX2_F32_FINISH_NEXT \
	DECQ BX;       \
	JZ   ad32done; \
	ADDQ R8, DX;   \
	ADDQ $4, R11

// AVX2_F32_DIRECT_LOADB loads k-step p's B row, origin + offs[p] floats,
// into Y12:Y13.
#define AVX2_F32_DIRECT_LOADB \
	MOVQ    (R9), R10;          \
	VMOVUPS (DI)(R10*4), Y12;   \
	VMOVUPS 32(DI)(R10*4), Y13

// AVX2_F32_DIRECT_NEXTK steps the packed A and the offsets to the next
// k-step and loops to label while k-steps remain.
#define AVX2_F32_DIRECT_NEXTK(label) \
	ADDQ $24, SI; \
	ADDQ $8, R9;  \
	DECQ CX;      \
	JNZ  label

// func kernF32AVX2DirectAsm(kc int, pa, origin []float32, offs []int, ep []float32, c []float32, ldc, rows int)
//
// kernF32AVX2 with the B row of k-step p loaded from origin + offs[p]
// floats instead of the packed panel: the same loads and FMAs in the same
// order, so the accumulators are the packed kernel's bit for bit. rows 0
// adds all six rows to C as kernF32AVX2 does; rows 1–6 runs the FMAs of
// the first rows rows only (each row's accumulators see the same chain
// whatever the others do), overwrites C's first rows rows with
// AVX2_F32_FINISH_ROW and leaves the rest of C alone.
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
	CMPQ  BX, $1
	JEQ   ad32loop1
	CMPQ  BX, $2
	JEQ   ad32loop2
	CMPQ  BX, $3
	JEQ   ad32loop3
	CMPQ  BX, $4
	JEQ   ad32loop4
	CMPQ  BX, $5
	JEQ   ad32loop5

ad32loop:
	AVX2_F32_DIRECT_LOADB
	AVX2_F32_STEP
	AVX2_F32_DIRECT_NEXTK(ad32loop)

ad32store:
	TESTQ BX, BX
	JNZ   ad32finish
	AVX2_F32_STORE
	VZEROUPPER
	RET

ad32loop1:
	AVX2_F32_DIRECT_LOADB
	AVX2_F32_ROWSTEP(0, Y0, Y1)
	AVX2_F32_DIRECT_NEXTK(ad32loop1)
	JMP ad32finish

ad32loop2:
	AVX2_F32_DIRECT_LOADB
	AVX2_F32_ROWSTEP(0, Y0, Y1)
	AVX2_F32_ROWSTEP(4, Y2, Y3)
	AVX2_F32_DIRECT_NEXTK(ad32loop2)
	JMP ad32finish

ad32loop3:
	AVX2_F32_DIRECT_LOADB
	AVX2_F32_ROWSTEP(0, Y0, Y1)
	AVX2_F32_ROWSTEP(4, Y2, Y3)
	AVX2_F32_ROWSTEP(8, Y4, Y5)
	AVX2_F32_DIRECT_NEXTK(ad32loop3)
	JMP ad32finish

ad32loop4:
	AVX2_F32_DIRECT_LOADB
	AVX2_F32_ROWSTEP(0, Y0, Y1)
	AVX2_F32_ROWSTEP(4, Y2, Y3)
	AVX2_F32_ROWSTEP(8, Y4, Y5)
	AVX2_F32_ROWSTEP(12, Y6, Y7)
	AVX2_F32_DIRECT_NEXTK(ad32loop4)
	JMP ad32finish

ad32loop5:
	AVX2_F32_DIRECT_LOADB
	AVX2_F32_ROWSTEP(0, Y0, Y1)
	AVX2_F32_ROWSTEP(4, Y2, Y3)
	AVX2_F32_ROWSTEP(8, Y4, Y5)
	AVX2_F32_ROWSTEP(12, Y6, Y7)
	AVX2_F32_ROWSTEP(16, Y8, Y9)
	AVX2_F32_DIRECT_NEXTK(ad32loop5)

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

// AVX2_F32_WIDE2 is one 8-column B vector of a 2×48 k-step: loaded from
// off(AX) and multiplied into row 0's accumulator r0 by the A value in Y12
// and row 1's r1 by the one in Y13.
#define AVX2_F32_WIDE2(off, r0, r1) \
	VMOVUPS     off(AX), Y15;  \
	VFMADD231PS Y15, Y12, r0;  \
	VFMADD231PS Y15, Y13, r1

// AVX2_F32_WIDE3 is AVX2_F32_WIDE2 for a 3×32 k-step, row 2's A value in
// Y14.
#define AVX2_F32_WIDE3(off, r0, r1, r2) \
	VMOVUPS     off(AX), Y15;  \
	VFMADD231PS Y15, Y12, r0;  \
	VFMADD231PS Y15, Y13, r1;  \
	VFMADD231PS Y15, Y14, r2

// AVX2_F32_WIDE_NEXTROW steps DX and R11 on to the next row.
#define AVX2_F32_WIDE_NEXTROW \
	ADDQ R8, DX; \
	ADDQ $4, R11

// func kernF32AVX2DirectWideAsm(kc int, pa, origin []float32, offs []int, ep []float32, c []float32, ldc, rows int)
//
// The finishing direct kernel for a strip of rows = 1, 2 or 3 live filters
// over 6/rows adjacent panels of one output row — a 1×96, 2×48 or 3×32 tile,
// whose twelve accumulators Y0..Y11 hold the rows in order, 96/rows columns
// each. k-step p's B row is the 96/rows floats at origin + offs[p]; every
// accumulator takes one VFMADD231PS per k-step in ascending p, from zero, as
// in kernF32AVX2DirectAsm, so each output element has the same chain and
// the same bits as there. The rows are stored by AVX2_F32_FINISH_AT.
TEXT ·kernF32AVX2DirectWideAsm(SB), NOSPLIT, $0-144
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
	JZ    aw32store
	CMPQ  BX, $2
	JEQ   aw32loop2
	JA    aw32loop3

aw32loop1:
	MOVQ         (R9), R10
	LEAQ         (DI)(R10*4), AX
	VBROADCASTSS (SI), Y12
	VFMADD231PS  (AX), Y12, Y0
	VFMADD231PS  32(AX), Y12, Y1
	VFMADD231PS  64(AX), Y12, Y2
	VFMADD231PS  96(AX), Y12, Y3
	VFMADD231PS  128(AX), Y12, Y4
	VFMADD231PS  160(AX), Y12, Y5
	VFMADD231PS  192(AX), Y12, Y6
	VFMADD231PS  224(AX), Y12, Y7
	VFMADD231PS  256(AX), Y12, Y8
	VFMADD231PS  288(AX), Y12, Y9
	VFMADD231PS  320(AX), Y12, Y10
	VFMADD231PS  352(AX), Y12, Y11
	AVX2_F32_DIRECT_NEXTK(aw32loop1)
	JMP          aw32store

aw32loop2:
	MOVQ         (R9), R10
	LEAQ         (DI)(R10*4), AX
	VBROADCASTSS (SI), Y12
	VBROADCASTSS 4(SI), Y13
	AVX2_F32_WIDE2(0, Y0, Y6)
	AVX2_F32_WIDE2(32, Y1, Y7)
	AVX2_F32_WIDE2(64, Y2, Y8)
	AVX2_F32_WIDE2(96, Y3, Y9)
	AVX2_F32_WIDE2(128, Y4, Y10)
	AVX2_F32_WIDE2(160, Y5, Y11)
	AVX2_F32_DIRECT_NEXTK(aw32loop2)
	JMP          aw32store

aw32loop3:
	MOVQ         (R9), R10
	LEAQ         (DI)(R10*4), AX
	VBROADCASTSS (SI), Y12
	VBROADCASTSS 4(SI), Y13
	VBROADCASTSS 8(SI), Y14
	AVX2_F32_WIDE3(0, Y0, Y4, Y8)
	AVX2_F32_WIDE3(32, Y1, Y5, Y9)
	AVX2_F32_WIDE3(64, Y2, Y6, Y10)
	AVX2_F32_WIDE3(96, Y3, Y7, Y11)
	AVX2_F32_DIRECT_NEXTK(aw32loop3)

aw32store:
	CMPQ BX, $2
	JEQ  aw32store2
	JA   aw32store3
	AVX2_F32_FINISH_AT(Y0, Y1, 0, 32)
	AVX2_F32_FINISH_AT(Y2, Y3, 64, 96)
	AVX2_F32_FINISH_AT(Y4, Y5, 128, 160)
	AVX2_F32_FINISH_AT(Y6, Y7, 192, 224)
	AVX2_F32_FINISH_AT(Y8, Y9, 256, 288)
	AVX2_F32_FINISH_AT(Y10, Y11, 320, 352)
	VZEROUPPER
	RET

aw32store2:
	AVX2_F32_FINISH_AT(Y0, Y1, 0, 32)
	AVX2_F32_FINISH_AT(Y2, Y3, 64, 96)
	AVX2_F32_FINISH_AT(Y4, Y5, 128, 160)
	AVX2_F32_WIDE_NEXTROW
	AVX2_F32_FINISH_AT(Y6, Y7, 0, 32)
	AVX2_F32_FINISH_AT(Y8, Y9, 64, 96)
	AVX2_F32_FINISH_AT(Y10, Y11, 128, 160)
	VZEROUPPER
	RET

aw32store3:
	AVX2_F32_FINISH_AT(Y0, Y1, 0, 32)
	AVX2_F32_FINISH_AT(Y2, Y3, 64, 96)
	AVX2_F32_WIDE_NEXTROW
	AVX2_F32_FINISH_AT(Y4, Y5, 0, 32)
	AVX2_F32_FINISH_AT(Y6, Y7, 64, 96)
	AVX2_F32_WIDE_NEXTROW
	AVX2_F32_FINISH_AT(Y8, Y9, 0, 32)
	AVX2_F32_FINISH_AT(Y10, Y11, 64, 96)
	VZEROUPPER
	RET

// func rank1AVX2Asm(w, row, c []float32, ldc int)
//
// For each i < len(w) whose w[i] is not ±0: c[i·ldc+j] += row[j]·w[i] for
// every j < len(row), the product rounded (VMULPS) before the add (VADDPS),
// each with its operands in the order Go's scalar loop gives them — row[j]
// then w[i], the product then c — so a NaN operand propagates the same
// payload. Eight floats a step. When len(row) is not a multiple of eight,
// the last eight floats are one more step, computed before the others are
// stored and stored after them: where it overlaps the last whole step both
// hold c+row·w of the same operands, so the overlap is written twice with
// the same bits. A row shorter than eight runs the VEX scalar forms.
TEXT ·rank1AVX2Asm(SB), NOSPLIT, $0-80
	MOVQ  w_base+0(FP), SI
	MOVQ  w_len+8(FP), CX
	MOVQ  row_base+24(FP), DI
	MOVQ  row_len+32(FP), BX
	MOVQ  c_base+48(FP), DX
	MOVQ  ldc+72(FP), R8
	SHLQ  $2, R8             // row stride in bytes
	TESTQ CX, CX
	JZ    r1done
	CMPQ  BX, $8
	JB    r1short
	LEAQ  -32(BX*4), R10     // byte offset of the last eight floats
	XORQ  R9, R9             // R9: row's last eight, or 0 without a tail
	TESTQ $7, BX
	JZ    r1whole
	LEAQ  (DI)(R10*1), R9

r1whole:
	SHRQ $3, BX
	SHLQ $5, BX              // bytes in whole steps

r1filter:
	MOVL         (SI), AX
	TESTL        $0x7fffffff, AX
	JZ           r1next      // w[i] is ±0: skipped
	VBROADCASTSS (SI), Y0
	TESTQ        R9, R9
	JZ           r1steps
	VMOVUPS      (R9), Y2    // the last eight, before any store
	VMULPS       Y0, Y2, Y2
	VADDPS       (DX)(R10*1), Y2, Y2

r1steps:
	XORQ  R13, R13
	TESTQ $32, BX
	JZ    r1pair             // an even number of whole steps
	VMOVUPS (DI), Y1
	VMULPS  Y0, Y1, Y1       // row·w
	VADDPS  (DX), Y1, Y1     // + c
	VMOVUPS Y1, (DX)
	MOVQ    $32, R13
	CMPQ    R13, BX
	JAE     r1stepped

r1pair:
	VMOVUPS (DI)(R13*1), Y1
	VMOVUPS 32(DI)(R13*1), Y3
	VMULPS  Y0, Y1, Y1
	VMULPS  Y0, Y3, Y3
	VADDPS  (DX)(R13*1), Y1, Y1
	VADDPS  32(DX)(R13*1), Y3, Y3
	VMOVUPS Y1, (DX)(R13*1)
	VMOVUPS Y3, 32(DX)(R13*1)
	ADDQ    $64, R13
	CMPQ    R13, BX
	JB      r1pair

r1stepped:
	TESTQ   R9, R9
	JZ      r1next
	VMOVUPS Y2, (DX)(R10*1)

r1next:
	ADDQ $4, SI
	ADDQ R8, DX
	DECQ CX
	JNZ  r1filter
	JMP  r1done

r1short:
	TESTQ BX, BX
	JZ    r1done

r1sfilter:
	MOVL   (SI), AX
	TESTL  $0x7fffffff, AX
	JZ     r1snext
	VMOVSS (SI), X0
	XORQ   R13, R13

r1sstep:
	VMOVSS (DI)(R13*4), X1
	VMULSS X0, X1, X1
	VADDSS (DX)(R13*4), X1, X1
	VMOVSS X1, (DX)(R13*4)
	INCQ   R13
	CMPQ   R13, BX
	JB     r1sstep

r1snext:
	ADDQ $4, SI
	ADDQ R8, DX
	DECQ CX
	JNZ  r1sfilter

r1done:
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

// fracConst holds the fractions kernel's broadcast constants: the bytes ','
// '0' and 9; the VPMADDUBSW/VPMADDWD weights that fold digit pairs, pairs
// of pairs and halves of eight (10·hi + lo, 100·hi + lo, 10000·hi + lo);
// 10^8; the bits of 2^52; the float64 mantissa bits a float32 drops; the
// pattern they hold at a float32 rounding midpoint; and the slack in ulps
// a product must keep from one (serve's dropped, midpoint and midSlack).
DATA fracConst<>+0(SB)/4, $0x2c2c2c2c
DATA fracConst<>+4(SB)/4, $0x30303030
DATA fracConst<>+8(SB)/4, $0x09090909
DATA fracConst<>+12(SB)/4, $0x010a010a
DATA fracConst<>+16(SB)/4, $0x00010064
DATA fracConst<>+20(SB)/4, $0x00012710
DATA fracConst<>+24(SB)/8, $100000000
DATA fracConst<>+32(SB)/8, $0x4330000000000000
DATA fracConst<>+40(SB)/8, $0x1fffffff
DATA fracConst<>+48(SB)/4, $0x10000000
DATA fracConst<>+52(SB)/4, $8
GLOBL fracConst<>(SB), RODATA|NOPTR, $56

// FRAC_TOKEN checks the token that follows the comma at (SI) + prev and
// ends at the comma at (SI) + comma: it starts "0.", and AX = comma − prev
// − 4, its digit count less one, is 0–14. AX becomes 8·AX, which addresses
// the token's shuffle row at 16(R12)(AX*2) and its 10^-d at 8(R13)(AX*1).
#define FRAC_TOKEN(prev, comma) \
	LEAQ -4(comma), AX;          \
	SUBQ prev, AX;               \
	CMPQ AX, $14;                \
	JHI  fracdone;               \
	CMPW 1(SI)(prev*1), $0x2e30; \
	JNE  fracdone;               \
	SHLQ $3, AX

// func fractionsAVX2Asm(buf []byte, pix []float32) (n, end int)
//
// Four tokens a step, each "0.", one to fifteen digits and a comma. The
// step's 64-byte window is compared against ',' and against the digits
// (VPCMPEQB, VPMINUB), VPMOVMSKB makes the two masks, and TZCNT/BLSR take
// its first four commas c0..c3. The step holds four fractions exactly when,
// up to c3, the only bytes neither digit nor comma are each token's second
// byte, each token starts "0." and each has one to fifteen digits. Each
// token's sixteen bytes after "0." are
// then loaded, '0' subtracted, and right-aligned by VPSHUFB with the row of
// fracShuffle for its digit count, so zeros lead the digits. VPMADDUBSW,
// VPMADDWD, VPACKUSDW and VPMADDWD fold them into two halves of eight
// digits, and VPMULUDQ by 10^8 plus the low half gives the exact mantissa
// (below 10^15 < 2^52). ORing in the bits of 2^52 and subtracting 2^52
// makes it a float64 without rounding, VMULPD by 10^-d rounds once —
// serve's fractionsSWAR product bit for bit — and the step is stored, by
// VCVTPD2PS, only when no product lies within the slack of a float32
// rounding midpoint. The loop stops at the first step that fails any of
// this, or when fewer than 96 bytes of buf or four slots of pix remain; n
// is the count stored and end the offset just past the last comma taken.
// len(buf) ≥ 96 and len(pix) ≥ 4 on entry.
TEXT ·fractionsAVX2Asm(SB), NOSPLIT, $0-64
	MOVQ         buf_base+0(FP), SI
	MOVQ         buf_len+8(FP), BX
	LEAQ         -96(SI)(BX*1), BX   // last group start with 96 bytes left
	MOVQ         pix_base+24(FP), DI
	MOVQ         pix_len+32(FP), CX
	LEAQ         ·fracShuffle(SB), R12
	LEAQ         ·fracNegPow10(SB), R13
	VPBROADCASTB fracConst<>+0(SB), Y15
	VPBROADCASTB fracConst<>+4(SB), Y14
	VPBROADCASTB fracConst<>+8(SB), Y13
	VPBROADCASTD fracConst<>+12(SB), Y12
	VPBROADCASTD fracConst<>+16(SB), Y11
	VPBROADCASTD fracConst<>+20(SB), Y10
	VPBROADCASTQ fracConst<>+24(SB), Y9
	VPBROADCASTQ fracConst<>+32(SB), Y8

fracloop:
	CMPQ SI, BX
	JHI  fracdone
	CMPQ CX, $4
	JLT  fracdone

	// The masks: AX the commas, DX the digits and commas.
	VMOVDQU   (SI), Y0
	VMOVDQU   32(SI), Y1
	VPCMPEQB  Y15, Y0, Y2
	VPCMPEQB  Y15, Y1, Y3
	VPMOVMSKB Y2, AX
	VPMOVMSKB Y3, DX
	SHLQ      $32, DX
	ORQ       DX, AX
	VPSUBB    Y14, Y0, Y0
	VPSUBB    Y14, Y1, Y1
	VPMINUB   Y13, Y0, Y2
	VPMINUB   Y13, Y1, Y3
	VPCMPEQB  Y2, Y0, Y2            // byte − '0' ≤ 9
	VPCMPEQB  Y3, Y1, Y3
	VPMOVMSKB Y2, DX
	VPMOVMSKB Y3, R8
	SHLQ      $32, R8
	ORQ       R8, DX
	ORQ       AX, DX

	// c0..c3 in R8..R11; fewer than four commas leaves TZCNT's source 0,
	// which sets CF.
	TZCNTQ AX, R8
	BLSRQ  AX, R14
	TZCNTQ R14, R9
	BLSRQ  R14, R14
	TZCNTQ R14, R10
	BLSRQ  R14, R14
	TZCNTQ R14, R11
	JCS    fracdone

	// Up to c3 the only bytes neither digit nor comma are the tokens'
	// second ones: 1, c0+2, c1+2 and c2+2.
	BLSMSKQ R14, R14                // bytes 0..c3
	ANDQ    R14, AX
	SHLQ    $2, AX
	ORQ     $2, AX
	ANDQ    R14, AX
	ANDNQ   R14, DX, DX
	CMPQ    DX, AX
	JNE     fracdone

	// Each token: its checks, digits (Y4 tokens 0|1, Y5 2|3), shuffle row
	// (Y6, Y7) and 10^-d (X3 tokens 0,1; X2 tokens 2,3).
	MOVQ        $-1, DX             // token 0 follows a comma at −1
	FRAC_TOKEN(DX, R8)
	VMOVDQU     2(SI), X4
	VMOVDQU     16(R12)(AX*2), X6
	VMOVSD      8(R13)(AX*1), X3
	FRAC_TOKEN(R8, R9)
	VINSERTI128 $1, 3(SI)(R8*1), Y4, Y4
	VINSERTI128 $1, 16(R12)(AX*2), Y6, Y6
	VMOVHPD     8(R13)(AX*1), X3, X3
	FRAC_TOKEN(R9, R10)
	VMOVDQU     3(SI)(R9*1), X5
	VMOVDQU     16(R12)(AX*2), X7
	VMOVSD      8(R13)(AX*1), X2
	FRAC_TOKEN(R10, R11)
	VINSERTI128 $1, 3(SI)(R10*1), Y5, Y5
	VINSERTI128 $1, 16(R12)(AX*2), Y7, Y7
	VMOVHPD     8(R13)(AX*1), X2, X2
	VINSERTF128 $1, X2, Y3, Y3

	// The mantissas, in qwords ordered tokens 0, 2, 1, 3 until VPERMQ.
	VPSUBB     Y14, Y4, Y4
	VPSUBB     Y14, Y5, Y5
	VPSHUFB    Y6, Y4, Y4
	VPSHUFB    Y7, Y5, Y5
	VPMADDUBSW Y12, Y4, Y4          // 8 pairs of digits a token
	VPMADDUBSW Y12, Y5, Y5
	VPMADDWD   Y11, Y4, Y4          // 4 groups of four
	VPMADDWD   Y11, Y5, Y5
	VPACKUSDW  Y5, Y4, Y4
	VPMADDWD   Y10, Y4, Y4          // 2 halves of eight
	VPMULUDQ   Y9, Y4, Y5
	VPSRLQ     $32, Y4, Y4
	VPADDQ     Y5, Y4, Y4
	VPERMQ     $0xD8, Y4, Y4

	// The products, and the midpoint guard on their dropped bits.
	VPOR         Y8, Y4, Y4
	VSUBPD       Y8, Y4, Y4
	VMULPD       Y3, Y4, Y4
	VPBROADCASTQ fracConst<>+40(SB), Y5
	VPAND        Y5, Y4, Y5
	VPBROADCASTD fracConst<>+48(SB), Y6
	VPSUBD       Y6, Y5, Y5
	VPABSD       Y5, Y5
	VPBROADCASTD fracConst<>+52(SB), Y6
	VPCMPGTD     Y6, Y5, Y5         // farther than the slack, in every dword
	VPMOVMSKB    Y5, AX
	CMPL         AX, $-1
	JNE          fracdone

	VCVTPD2PSY Y4, X4
	VMOVUPS    X4, (DI)
	ADDQ       $16, DI
	SUBQ       $4, CX
	LEAQ       1(SI)(R11*1), SI
	JMP        fracloop

fracdone:
	MOVQ pix_base+24(FP), AX
	SUBQ AX, DI
	SHRQ $2, DI
	MOVQ DI, n+48(FP)
	SUBQ buf_base+0(FP), SI
	MOVQ SI, end+56(FP)
	VZEROUPPER
	RET

// idctConst holds the idct8x8 kernel's constants: image/jpeg's fixed-point
// weights w7, w1−w7, w1+w7, w3, w3−w5, w3+w5, w6, w2+w6, w2−w6 and r2, the
// rounding terms 128, 8192 and 4, and the VPERMD order that puts each row's
// two four-byte halves side by side.
DATA idctConst<>+0(SB)/4, $565
DATA idctConst<>+4(SB)/4, $2276
DATA idctConst<>+8(SB)/4, $3406
DATA idctConst<>+12(SB)/4, $2408
DATA idctConst<>+16(SB)/4, $799
DATA idctConst<>+20(SB)/4, $4017
DATA idctConst<>+24(SB)/4, $1108
DATA idctConst<>+28(SB)/4, $3784
DATA idctConst<>+32(SB)/4, $1568
DATA idctConst<>+36(SB)/4, $181
DATA idctConst<>+40(SB)/4, $128
DATA idctConst<>+44(SB)/4, $8192
DATA idctConst<>+48(SB)/4, $4
DATA idctConst<>+52(SB)/4, $0x80808080
DATA idctConst<>+56(SB)/8, $0x0000000400000000
DATA idctConst<>+64(SB)/8, $0x0000000500000001
DATA idctConst<>+72(SB)/8, $0x0000000600000002
DATA idctConst<>+80(SB)/8, $0x0000000700000003
GLOBL idctConst<>(SB), RODATA|NOPTR, $88

#define IDCT_W7 idctConst<>+0(SB)
#define IDCT_W1MW7 idctConst<>+4(SB)
#define IDCT_W1PW7 idctConst<>+8(SB)
#define IDCT_W3 idctConst<>+12(SB)
#define IDCT_W3MW5 idctConst<>+16(SB)
#define IDCT_W3PW5 idctConst<>+20(SB)
#define IDCT_W6 idctConst<>+24(SB)
#define IDCT_W2PW6 idctConst<>+28(SB)
#define IDCT_W2MW6 idctConst<>+32(SB)
#define IDCT_R2 idctConst<>+36(SB)
#define IDCT_C128 idctConst<>+40(SB)
#define IDCT_C8192 idctConst<>+44(SB)
#define IDCT_C4 idctConst<>+48(SB)
#define IDCT_SIGN idctConst<>+52(SB)
#define IDCT_PERM idctConst<>+56(SB)

// IDCT_MUL sets dst = src·c in every lane, the constant broadcast into t.
#define IDCT_MUL(c, t, src, dst) \
	VPBROADCASTD c, t; \
	VPMULLD      t, src, dst

// IDCT_ADD sets r = r+c in every lane, the constant broadcast into t.
#define IDCT_ADD(c, t, r) \
	VPBROADCASTD c, t; \
	VPADDD       t, r, r

// IDCT_TRANSPOSE transposes the 8×8 int32 matrix whose rows are r0..r7
// into t0..t7 (t_j lane i = r_i lane j), clobbering r0..r7.
#define IDCT_TRANSPOSE(r0, r1, r2, r3, r4, r5, r6, r7, t0, t1, t2, t3, t4, t5, t6, t7) \
	VPUNPCKLDQ  r1, r0, t0;        \
	VPUNPCKHDQ  r1, r0, t1;        \
	VPUNPCKLDQ  r3, r2, t2;        \
	VPUNPCKHDQ  r3, r2, t3;        \
	VPUNPCKLDQ  r5, r4, t4;        \
	VPUNPCKHDQ  r5, r4, t5;        \
	VPUNPCKLDQ  r7, r6, t6;        \
	VPUNPCKHDQ  r7, r6, t7;        \
	VPUNPCKLQDQ t2, t0, r0;        \
	VPUNPCKHQDQ t2, t0, r1;        \
	VPUNPCKLQDQ t3, t1, r2;        \
	VPUNPCKHQDQ t3, t1, r3;        \
	VPUNPCKLQDQ t6, t4, r4;        \
	VPUNPCKHQDQ t6, t4, r5;        \
	VPUNPCKLQDQ t7, t5, r6;        \
	VPUNPCKHQDQ t7, t5, r7;        \
	VPERM2I128  $0x20, r4, r0, t0; \
	VPERM2I128  $0x20, r5, r1, t1; \
	VPERM2I128  $0x20, r6, r2, t2; \
	VPERM2I128  $0x20, r7, r3, t3; \
	VPERM2I128  $0x31, r4, r0, t4; \
	VPERM2I128  $0x31, r5, r1, t5; \
	VPERM2I128  $0x31, r6, r2, t6; \
	VPERM2I128  $0x31, r7, r3, t7

// IDCT_STORE4 stores the 32 bytes of y, four rows of eight (two per lane,
// as VPACKSSWB leaves them), at DI, DI+BX, DI+2·BX and DI+3·BX, then
// advances DI four rows. x is y's low half; y is clobbered.
#define IDCT_STORE4(y, x) \
	VPERMD       y, Y15, y;      \
	VMOVQ        x, (DI);        \
	VPEXTRQ      $1, x, (DI)(BX*1); \
	VEXTRACTI128 $1, y, x;       \
	VMOVQ        x, (DI)(BX*2);  \
	VPEXTRQ      $1, x, (DI)(CX*1); \
	LEAQ         (DI)(BX*4), DI

// func idct8x8AVX2Asm(blk *[64]int32, dst []byte, stride int)
//
// image/jpeg's idct with its level shift and clamp, eight int32 lanes at a
// time. The rows are loaded and transposed, so lane y of the vector for
// coefficient k holds row y's s[k]: the row pass then runs on all eight
// rows at once, in the Go code's operations and order (VPMULLD, VPADDD,
// VPSUBD and VPSRAD are its int32 *, +, − and >>, wrap-around included),
// and its dc<<3 shortcut is blended in for the lanes whose seven AC
// coefficients are zero — the two differ only where s[0]<<11 wraps. The
// result is transposed back, so lane x of the vector for row y holds
// s[y][x], and the column pass runs on all eight columns. VPACKSSDW and
// VPACKSSWB saturate each v to [−128, 127], a sign-bit flip adds 128, and
// VPERMD joins each row's two halves for its 8-byte store.
TEXT ·idct8x8AVX2Asm(SB), NOSPLIT, $0-40
	MOVQ    blk+0(FP), SI
	MOVQ    dst_base+8(FP), DI
	MOVQ    stride+32(FP), BX
	VMOVDQU 0(SI), Y0
	VMOVDQU 32(SI), Y1
	VMOVDQU 64(SI), Y2
	VMOVDQU 96(SI), Y3
	VMOVDQU 128(SI), Y4
	VMOVDQU 160(SI), Y5
	VMOVDQU 192(SI), Y6
	VMOVDQU 224(SI), Y7
	IDCT_TRANSPOSE(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)

	// Row pass: s[k] is Y(8+k). Y0 marks the rows without AC, Y1 holds
	// their dc<<3.
	VPOR        Y9, Y10, Y0
	VPOR        Y11, Y0, Y0
	VPOR        Y12, Y0, Y0
	VPOR        Y13, Y0, Y0
	VPOR        Y14, Y0, Y0
	VPOR        Y15, Y0, Y0
	VPXOR       Y1, Y1, Y1
	VPCMPEQD    Y1, Y0, Y0
	VPSLLD      $3, Y8, Y1
	VPSLLD      $11, Y8, Y8              // x0
	IDCT_ADD(IDCT_C128, Y7, Y8)
	VPSLLD      $11, Y12, Y12            // x1; x2..x7 are Y14, Y10, Y9, Y15, Y13, Y11
	VPADDD      Y15, Y9, Y2
	IDCT_MUL(IDCT_W7, Y7, Y2, Y2)        // x8
	IDCT_MUL(IDCT_W1MW7, Y7, Y9, Y3)
	VPADDD      Y3, Y2, Y9               // x4
	IDCT_MUL(IDCT_W1PW7, Y7, Y15, Y3)
	VPSUBD      Y3, Y2, Y15              // x5
	VPADDD      Y11, Y13, Y2
	IDCT_MUL(IDCT_W3, Y7, Y2, Y2)        // x8
	IDCT_MUL(IDCT_W3MW5, Y7, Y13, Y3)
	VPSUBD      Y3, Y2, Y13              // x6
	IDCT_MUL(IDCT_W3PW5, Y7, Y11, Y3)
	VPSUBD      Y3, Y2, Y11              // x7
	VPADDD      Y12, Y8, Y2              // x8
	VPSUBD      Y12, Y8, Y8              // x0
	VPADDD      Y14, Y10, Y12
	IDCT_MUL(IDCT_W6, Y7, Y12, Y12)      // x1
	IDCT_MUL(IDCT_W2PW6, Y7, Y14, Y3)
	VPSUBD      Y3, Y12, Y14             // x2
	IDCT_MUL(IDCT_W2MW6, Y7, Y10, Y3)
	VPADDD      Y3, Y12, Y10             // x3
	VPADDD      Y13, Y9, Y12             // x1
	VPSUBD      Y13, Y9, Y9              // x4
	VPADDD      Y11, Y15, Y13            // x6
	VPSUBD      Y11, Y15, Y15            // x5
	VPADDD      Y10, Y2, Y11             // x7
	VPSUBD      Y10, Y2, Y2              // x8
	VPADDD      Y14, Y8, Y10             // x3
	VPSUBD      Y14, Y8, Y8              // x0
	VPADDD      Y15, Y9, Y14
	IDCT_MUL(IDCT_R2, Y7, Y14, Y14)
	IDCT_ADD(IDCT_C128, Y7, Y14)
	VPSRAD      $8, Y14, Y14             // x2
	VPSUBD      Y15, Y9, Y9
	IDCT_MUL(IDCT_R2, Y7, Y9, Y9)
	IDCT_ADD(IDCT_C128, Y7, Y9)
	VPSRAD      $8, Y9, Y9               // x4
	VPADDD      Y12, Y11, Y3
	VPSUBD      Y12, Y11, Y4
	VPADDD      Y14, Y10, Y5
	VPSUBD      Y14, Y10, Y6
	VPADDD      Y9, Y8, Y7
	VPSUBD      Y9, Y8, Y15
	VPADDD      Y13, Y2, Y8
	VPSUBD      Y13, Y2, Y9
	VPSRAD      $8, Y3, Y3               // s[0]
	VPSRAD      $8, Y5, Y5               // s[1]
	VPSRAD      $8, Y7, Y7               // s[2]
	VPSRAD      $8, Y8, Y8               // s[3]
	VPSRAD      $8, Y9, Y9               // s[4]
	VPSRAD      $8, Y15, Y15             // s[5]
	VPSRAD      $8, Y6, Y6               // s[6]
	VPSRAD      $8, Y4, Y4               // s[7]
	VPBLENDVB   Y0, Y1, Y3, Y3
	VPBLENDVB   Y0, Y1, Y5, Y5
	VPBLENDVB   Y0, Y1, Y7, Y7
	VPBLENDVB   Y0, Y1, Y8, Y8
	VPBLENDVB   Y0, Y1, Y9, Y9
	VPBLENDVB   Y0, Y1, Y15, Y15
	VPBLENDVB   Y0, Y1, Y6, Y6
	VPBLENDVB   Y0, Y1, Y4, Y4
	IDCT_TRANSPOSE(Y3, Y5, Y7, Y8, Y9, Y15, Y6, Y4, Y0, Y1, Y2, Y10, Y11, Y12, Y13, Y14)

	// Column pass: row y is Y0, Y1, Y2, Y10, Y11, Y12, Y13, Y14.
	VPSLLD      $8, Y0, Y0
	IDCT_ADD(IDCT_C8192, Y15, Y0)        // y0
	VPSLLD      $8, Y11, Y11             // y1; y2..y7 are Y13, Y2, Y1, Y14, Y12, Y10
	VPADDD      Y14, Y1, Y3
	IDCT_MUL(IDCT_W7, Y15, Y3, Y3)
	IDCT_ADD(IDCT_C4, Y15, Y3)           // y8
	IDCT_MUL(IDCT_W1MW7, Y15, Y1, Y4)
	VPADDD      Y4, Y3, Y1
	VPSRAD      $3, Y1, Y1               // y4
	IDCT_MUL(IDCT_W1PW7, Y15, Y14, Y4)
	VPSUBD      Y4, Y3, Y14
	VPSRAD      $3, Y14, Y14             // y5
	VPADDD      Y10, Y12, Y3
	IDCT_MUL(IDCT_W3, Y15, Y3, Y3)
	IDCT_ADD(IDCT_C4, Y15, Y3)           // y8
	IDCT_MUL(IDCT_W3MW5, Y15, Y12, Y4)
	VPSUBD      Y4, Y3, Y12
	VPSRAD      $3, Y12, Y12             // y6
	IDCT_MUL(IDCT_W3PW5, Y15, Y10, Y4)
	VPSUBD      Y4, Y3, Y10
	VPSRAD      $3, Y10, Y10             // y7
	VPADDD      Y11, Y0, Y3              // y8
	VPSUBD      Y11, Y0, Y0              // y0
	VPADDD      Y13, Y2, Y11
	IDCT_MUL(IDCT_W6, Y15, Y11, Y11)
	IDCT_ADD(IDCT_C4, Y15, Y11)          // y1
	IDCT_MUL(IDCT_W2PW6, Y15, Y13, Y4)
	VPSUBD      Y4, Y11, Y13
	VPSRAD      $3, Y13, Y13             // y2
	IDCT_MUL(IDCT_W2MW6, Y15, Y2, Y4)
	VPADDD      Y4, Y11, Y2
	VPSRAD      $3, Y2, Y2               // y3
	VPADDD      Y12, Y1, Y11             // y1
	VPSUBD      Y12, Y1, Y1              // y4
	VPADDD      Y10, Y14, Y12            // y6
	VPSUBD      Y10, Y14, Y14            // y5
	VPADDD      Y2, Y3, Y10              // y7
	VPSUBD      Y2, Y3, Y3               // y8
	VPADDD      Y13, Y0, Y2              // y3
	VPSUBD      Y13, Y0, Y0              // y0
	VPADDD      Y14, Y1, Y13
	IDCT_MUL(IDCT_R2, Y15, Y13, Y13)
	IDCT_ADD(IDCT_C128, Y15, Y13)
	VPSRAD      $8, Y13, Y13             // y2
	VPSUBD      Y14, Y1, Y1
	IDCT_MUL(IDCT_R2, Y15, Y1, Y1)
	IDCT_ADD(IDCT_C128, Y15, Y1)
	VPSRAD      $8, Y1, Y1               // y4
	VPADDD      Y11, Y10, Y4
	VPSUBD      Y11, Y10, Y5
	VPADDD      Y13, Y2, Y6
	VPSUBD      Y13, Y2, Y7
	VPADDD      Y1, Y0, Y8
	VPSUBD      Y1, Y0, Y9
	VPADDD      Y12, Y3, Y14
	VPSUBD      Y12, Y3, Y15
	VPSRAD      $14, Y4, Y4              // row 0
	VPSRAD      $14, Y6, Y6              // row 1
	VPSRAD      $14, Y8, Y8              // row 2
	VPSRAD      $14, Y14, Y14            // row 3
	VPSRAD      $14, Y15, Y15            // row 4
	VPSRAD      $14, Y9, Y9              // row 5
	VPSRAD      $14, Y7, Y7              // row 6
	VPSRAD      $14, Y5, Y5              // row 7

	// Clamp, shift by 128 and store.
	VPACKSSDW    Y6, Y4, Y0
	VPACKSSDW    Y14, Y8, Y1
	VPACKSSDW    Y9, Y15, Y2
	VPACKSSDW    Y5, Y7, Y3
	VPACKSSWB    Y1, Y0, Y0
	VPACKSSWB    Y3, Y2, Y2
	VPBROADCASTD IDCT_SIGN, Y4
	VPXOR        Y4, Y0, Y0
	VPXOR        Y4, Y2, Y2
	VMOVDQU      IDCT_PERM, Y15
	LEAQ         (BX)(BX*2), CX
	IDCT_STORE4(Y0, X0)
	IDCT_STORE4(Y2, X2)
	VZEROUPPER
	RET
