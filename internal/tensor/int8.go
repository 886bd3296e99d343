package tensor

// This file holds the INT8 counterparts of the float32 convolution kernels:
// an int8 im2col with the exact patch layout of Im2col, and an int8 GEMM
// that accumulates in int32 and requantizes each output tile back to float32
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
// prepack.go) — the quantized weights never change after Quantize, so the
// serving path packs them exactly once.

// ResliceI8 returns an int8 slice of length n, reusing s's backing array
// whenever its capacity suffices and allocating only when it does not — the
// Reslice workspace-reuse primitive for raw int8 scratch buffers. Reused
// contents are unspecified; callers must fully overwrite.
func ResliceI8(s []int8, n int) []int8 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int8, n)
}

// Im2colInt8 unrolls a single-image CHW int8 input into the column matrix
// used to lower convolution onto GEMM. It produces exactly the same patch
// layout as the float Im2col: (channels*ksize*ksize) rows by (outH*outW)
// columns, row-major, with zeros for pixels outside the padded image.
func Im2colInt8(img []int8, channels, height, width, ksize, stride, pad int, col []int8) {
	outH := (height+2*pad-ksize)/stride + 1
	outW := (width+2*pad-ksize)/stride + 1
	colsPerRow := outH * outW
	rows := channels * ksize * ksize
	for r := 0; r < rows; r++ {
		wOff := r % ksize
		hOff := (r / ksize) % ksize
		ch := r / (ksize * ksize)
		src := img[ch*height*width:]
		dst := col[r*colsPerRow:]
		for oh := 0; oh < outH; oh++ {
			ih := oh*stride - pad + hOff
			base := oh * outW
			if ih < 0 || ih >= height {
				for ow := 0; ow < outW; ow++ {
					dst[base+ow] = 0
				}
				continue
			}
			srow := src[ih*width:]
			for ow := 0; ow < outW; ow++ {
				iw := ow*stride - pad + wOff
				if iw < 0 || iw >= width {
					dst[base+ow] = 0
				} else {
					dst[base+ow] = srow[iw]
				}
			}
		}
	}
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
	ctx.requant, ctx.bias = requant, bias
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
// strip. Full tiles requantize straight into C; edge tiles go through a
// pooled scratch tile with zero-padded requant/bias rows, then copy the
// valid region (overwrite semantics).
func taskTilesI8(ctx *gemmCtx, lo, hi int) {
	var ts *tileScratch
	stripLen := ctx.mr * 2 * ctx.kPairs
	panelLen := ctx.nr * 2 * ctx.kPairs
	for pn := lo; pn < hi; pn++ {
		j0 := ctx.jj + pn*ctx.nr
		cols := min(ctx.nr, ctx.n-j0)
		pb := ctx.pb16[pn*panelLen:]
		for s := 0; s < ctx.nStrips; s++ {
			i0 := s * ctx.mr
			rows := min(ctx.mr, ctx.m-i0)
			pa := ctx.pa16RO[s*stripLen:]
			if rows == ctx.mr && cols == ctx.nr {
				ctx.ki8(ctx.kPairs, pa, pb, ctx.requant[i0:], ctx.bias[i0:], ctx.c[i0*ctx.ldc+j0:], ctx.ldc)
				continue
			}
			if ts == nil {
				ts = tileScratchPool.Get().(*tileScratch)
			}
			for r := 0; r < ctx.mr; r++ {
				if r < rows {
					ts.rq[r], ts.bs[r] = ctx.requant[i0+r], ctx.bias[i0+r]
				} else {
					ts.rq[r], ts.bs[r] = 0, 0
				}
			}
			ctx.ki8(ctx.kPairs, pa, pb, ts.rq[:], ts.bs[:], ts.tile[:], ctx.nr)
			for r := 0; r < rows; r++ {
				crow := ctx.c[(i0+r)*ctx.ldc+j0:]
				trow := ts.tile[r*ctx.nr:]
				for j := 0; j < cols; j++ {
					crow[j] = trow[j]
				}
			}
		}
	}
	if ts != nil {
		tileScratchPool.Put(ts)
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
			crow[j] = float32(acc)*scale + off
		}
	}
}
