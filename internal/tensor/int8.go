package tensor

import "math"

// This file holds the INT8 arithmetic under the quantized convolution
// (convint8.go): the symmetric activation quantizer, and an int8 GEMM that
// accumulates in int32 and requantizes each output tile back to float32
// with a per-channel scale. Integer accumulation is exact and associative,
// so results are independent of blocking, batching, and worker count — the
// property the quantized serving path relies on for batched == serial
// identity.
//
// GemmInt8 rides the same packed blocking driver as the float32 Gemm
// (gemm.go): A is packed into MR-interleaved int16 k-pair strips, B into
// NR-interleaved int16 k-pair panels, and the MR×NR microkernel of the
// runtime-selected family (VPMADDWD/PMADDWD on amd64) accumulates int32
// over the full k before requantizing on store. Unlike fp32 there is no
// K-panel split: keeping the whole k inside one kernel call keeps the int32
// accumulators in registers, and the packed slabs stay cache-sized by
// chunking n instead. A can arrive pre-packed (GemmInt8Prepacked,
// prepack.go); the serving path's ConvPrepackedInt8 always does — the
// quantized weights never change after Quantize, so they are packed
// exactly once.

// QuantizeSymmetric quantizes src into dst (which must be at least as long)
// with the symmetric map q = clamp(round(v/scale), ±127), rounding halves
// away from zero. A zero scale (or a NaN input) maps to zero. It is the one
// activation quantizer of the int8 path: ConvPrepackedInt8 quantizes its
// input with it, written into the pair plane.
func QuantizeSymmetric(src []float32, scale float32, dst []int8) {
	quantize(src, scale, dst, 1)
}

// quantizeStrided is QuantizeSymmetric writing q(src[i]) to dst[2·i]: one
// channel of a pair plane row (convint8.go).
func quantizeStrided(src []float32, scale float32, dst []int16) {
	quantize(src, scale, dst, 2)
}

// quantize writes q(src[i]) to dst[i·step] for both entry points above.
func quantize[T int8 | int16](src []float32, scale float32, dst []T, step int) {
	if scale == 0 {
		for i := range src {
			dst[i*step] = 0
		}
		return
	}
	inv := 1 / scale
	if math.IsInf(float64(inv), 0) {
		// scale is subnormal: multiplying by the overflowed inverse would
		// produce ±Inf, so divide instead (IEEE division is correctly
		// rounded for subnormal operands too).
		for i, v := range src {
			dst[i*step] = T(roundQuant(v / scale))
		}
		return
	}
	for i, v := range src {
		dst[i*step] = T(roundQuant(v * inv))
	}
}

// roundQuant rounds the scaled value t half away from zero and clamps it to
// ±127; NaN maps to zero rather than to a platform-defined conversion. The
// clamps run in float space first, so the int32 conversion never sees an
// out-of-range value. Rounding adds a sign-matched 0.49999997 (the float32
// just below ½) and truncates. Adding ½ itself would round 0.49999997 up:
// 0.49999997 + 0.5 is 1 − 2⁻²⁵, which float32 rounds to 1. With the
// smaller half, a tie n+½ still rounds away from zero (to 1 by ties-to-even
// for n = 0, and because ½·ulp exceeds 2⁻²⁵ for n ≥ 1), and nothing below a
// tie reaches the next integer.
func roundQuant(t float32) int32 {
	switch {
	case t != t:
		return 0
	case t >= 127:
		return 127
	case t <= -127:
		return -127
	}
	half := math.Float32frombits(0x3EFFFFFF | math.Float32bits(t)&0x80000000)
	return int32(t + half)
}

// GemmInt8 computes C = requant ⊙ (A·B) + bias for row-major int8 matrices:
// A is m×k (quantized weights, one row per output channel), B is k×n (the
// quantized im2col patches), and C is m×n float32. Products accumulate
// exactly in int32; each finished tile is requantized on store as
//
//	C[i][j] = float32(acc[i][j])*requant[i] + bias[i]
//
// which is the standard per-output-channel dequantization (requant[i] =
// weightScale[i]·activationScale). int32 addition is associative, so neither
// the panel blocking nor the worker count can change results — batched and
// serial execution are byte-identical.
func GemmInt8(m, n, k int, a []int8, lda int, b []int8, ldb int, requant, bias []float32, c []float32, ldc int) {
	if int64(m)*int64(n)*int64(k) < packThreshold {
		gemmInt8Naive(m, n, k, a, lda, b, ldb, requant, bias, c, ldc)
		return
	}
	gemmInt8Packed(currentKernels(), m, n, k, a, lda, b, ldb, requant, bias, c, ldc, nil)
}

// gemmInt8Packed is the blocked int8 driver. kern is the microkernel family
// captured by the caller. When pre is non-nil it is the full pre-packed
// int16 k-pair A in prepack.go's layout (packed at kern's MR): the A pack
// stage is skipped and the tile stage reads the shared slab directly.
func gemmInt8Packed(kern *microKernels, m, n, k int, a []int8, lda int, b []int8, ldb int, requant, bias []float32, c []float32, ldc int, pre []int16) {
	ctx := gemmCtxPool.Get().(*gemmCtx)
	ctx.setKernels(kern)
	ctx.m, ctx.n, ctx.k = m, n, k
	ctx.a8, ctx.b8, ctx.c = a, b, c
	ctx.lda, ctx.ldb, ctx.ldc = lda, ldb, ldc
	ctx.requant, ctx.bias, ctx.slope = requant, bias, 1
	ctx.kPairs = (k + 1) / 2
	ctx.nStrips = (m + ctx.mr - 1) / ctx.mr

	if pre != nil {
		ctx.pa16RO = pre
	} else {
		ctx.pa16 = reslice(ctx.pa16, ctx.nStrips*ctx.mr*2*ctx.kPairs)
		ctx.pa16RO = ctx.pa16
		gemmParallel(ctx, ctx.nStrips, taskPackAI8)
	}

	// Chunk n so one packed B slab stays around 1 MB of int16 pairs.
	ncI8 := (1 << 18) / ctx.kPairs
	ncI8 -= ncI8 % ctx.nr
	if ncI8 < ctx.nr {
		ncI8 = ctx.nr
	}
	if ncI8 > ncBlock {
		ncI8 = ncBlock
	}
	for jj := 0; jj < n; jj += ncI8 {
		ctx.jj = jj
		ctx.nc = min(ncI8, n-jj)
		nPanels := (ctx.nc + ctx.nr - 1) / ctx.nr
		ctx.pb16 = reslice(ctx.pb16, nPanels*ctx.nr*2*ctx.kPairs)
		gemmParallel(ctx, nPanels, taskPackBI8)
		gemmParallel(ctx, nPanels, taskTilesI8)
	}
	ctx.release()
}

// taskPackAI8 packs A strips [lo, hi) over the full k.
func taskPackAI8(ctx *gemmCtx, lo, hi int) {
	stripLen := ctx.mr * 2 * ctx.kPairs
	for s := lo; s < hi; s++ {
		packAI8(ctx.a8, ctx.lda, ctx.m, ctx.k, s*ctx.mr, ctx.pa16[s*stripLen:(s+1)*stripLen], ctx.mr)
	}
}

// taskPackBI8 packs B panels [lo, hi) of the current N chunk over the full k.
func taskPackBI8(ctx *gemmCtx, lo, hi int) {
	panelLen := ctx.nr * 2 * ctx.kPairs
	for pn := lo; pn < hi; pn++ {
		packBI8(ctx.b8, ctx.ldb, ctx.n, ctx.k, ctx.jj+pn*ctx.nr, ctx.pb16[pn*panelLen:(pn+1)*panelLen], ctx.nr)
	}
}

// taskTilesI8 runs the int8 microkernel over panels [lo, hi) × every A
// strip.
func taskTilesI8(ctx *gemmCtx, lo, hi int) {
	ts := tileScratchPool.Get().(*tileScratch)
	panelLen := ctx.nr * 2 * ctx.kPairs
	for pn := lo; pn < hi; pn++ {
		j0 := ctx.jj + pn*ctx.nr
		ctx.panelTilesI8(ts, ctx.pb16[pn*panelLen:], j0, min(ctx.nr, ctx.n-j0))
	}
	tileScratchPool.Put(ts)
}

// panelTilesI8 runs every A strip against one packed int16 B panel covering
// C columns [j0, j0+cols). Full tiles are stored finished straight into C;
// edge tiles go through the scratch tile with zero-padded requant/bias rows,
// then copy the valid region (overwrite semantics).
func (ctx *gemmCtx) panelTilesI8(ts *tileScratch, pb []int16, j0, cols int) {
	stripLen := ctx.mr * 2 * ctx.kPairs
	for s := 0; s < ctx.nStrips; s++ {
		i0 := s * ctx.mr
		rows := min(ctx.mr, ctx.m-i0)
		pa := ctx.pa16RO[s*stripLen:]
		if rows == ctx.mr && cols == ctx.nr {
			ctx.ki8(ctx.kPairs, pa, pb, ctx.requant[i0:], ctx.bias[i0:], ctx.slope, ctx.c[i0*ctx.ldc+j0:], ctx.ldc)
			continue
		}
		for r := 0; r < ctx.mr; r++ {
			if r < rows {
				ts.rq[r], ts.bs[r] = ctx.requant[i0+r], ctx.bias[i0+r]
			} else {
				ts.rq[r], ts.bs[r] = 0, 0
			}
		}
		ctx.ki8(ctx.kPairs, pa, pb, ts.rq[:], ts.bs[:], ctx.slope, ts.tile[:], ctx.nr)
		for r := 0; r < rows; r++ {
			copy(ctx.c[(i0+r)*ctx.ldc+j0:][:cols], ts.tile[r*ctx.nr:])
		}
	}
}

// gemmInt8Naive is the register-free reference loop: exact int32
// accumulation in ascending-k order. It doubles as the oracle for the
// packed-vs-naive fuzz cross-check — integer accumulation is associative,
// so the packed driver must match it bit for bit.
func gemmInt8Naive(m, n, k int, a []int8, lda int, b []int8, ldb int, requant, bias []float32, c []float32, ldc int) {
	for i := 0; i < m; i++ {
		arow := a[i*lda:]
		crow := c[i*ldc : i*ldc+n]
		scale, off := requant[i], bias[i]
		for j := 0; j < n; j++ {
			var acc int32
			for p := 0; p < k; p++ {
				acc += int32(arow[p]) * int32(b[p*ldb+j])
			}
			crow[j] = float32(float32(acc)*scale) + off
		}
	}
}
