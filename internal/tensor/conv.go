package tensor

import "math"

// Implicit-GEMM convolution for the inference path. A convolution is the
// GEMM  C = W · im2col(x); ConvPrepacked runs it on the blocked driver of
// gemm.go without ever materialising the k×n column matrix: each NR-wide B
// panel is packed straight from the CHW input through a ConvGeom view
// (packBConvF32) into an L1-sized per-task buffer, the microkernel runs
// every pre-packed weight strip against it, and the finished C tile takes
// the layer's per-channel epilogue — inference batch norm, bias,
// leaky-ReLU — before it leaves L1. The beta=0 clear of C is folded into
// the tile task as well (the tile's rows are zeroed right before the first
// k-block's kernel call), so one pass over the output replaces what used to
// be im2col + B-pack + zeroing + three element-wise passes.
//
// Two stages have vector forms hung off the kernel family (kernel.go), and
// like the tile kernels they follow the selected family — portable has
// neither, so it runs the Go code below:
//
//   - f32Direct: a stride-1 panel inside one output row whose windows clear
//     the padding (the bulk of every 3×3 layer, and every full pointwise
//     panel) is not packed at all; the kernel reads each tap's nr floats
//     from the input where they lie, at the K block's tap offsets (offs).
//   - epilogue: the per-channel BN/bias/leaky row, applied once per run of
//     panels of at least epilogueRun columns rather than per panel.
//
// The result is bit-identical to Im2col → GemmPrepacked → BN → bias → Leaky:
// the packed panels (or the in-place rows) hold exactly the values packBF32
// would read from the column matrix, the kernels and the k-block order are
// the same, and the epilogue performs the same float32 operations in the
// same order.

// ConvGeom is the geometry of a square-kernel convolution over one CHW
// image: the view through which the driver reads im2col rows in place.
type ConvGeom struct {
	C, H, W            int
	Ksize, Stride, Pad int
}

// OutH returns the output height.
func (g ConvGeom) OutH() int { return ConvOutSize(g.H, g.Ksize, g.Stride, g.Pad) }

// OutW returns the output width.
func (g ConvGeom) OutW() int { return ConvOutSize(g.W, g.Ksize, g.Stride, g.Pad) }

// Epilogue is the per-output-channel post-processing applied to C rows, in
// this order: v = Scale·(v−Mean)·InvStd when Mean is non-nil (inference
// batch norm), v += Bias, then leaky-ReLU when Leaky is set. Every slice is
// indexed by output row (filter).
type Epilogue struct {
	Mean, Scale, InvStd []float32
	Bias                []float32
	Leaky               bool
}

// epilogueRun is the fewest columns the fused convolution hands the
// epilogue at once: a vector row call per 16-column panel would be 4,096 × 8
// calls for DroNet's first layer alone.
const epilogueRun = 64

// apply runs the epilogue over columns [j0, j0+cols) of all m rows of c,
// through the family's vector row kernel vec when it has one. The
// activation is Leaky's sign-indexed multiply; the linear activation
// multiplies by 1 on both sides, which is exact.
func (ep *Epilogue) apply(vec func(seg []float32, mu, gamma, inv, bias, slope float32), c []float32, ldc, m, j0, cols int) {
	factor := leakyFactor
	if !ep.Leaky {
		factor[1] = 1
	}
	for i := 0; i < m; i++ {
		seg := c[i*ldc+j0 : i*ldc+j0+cols]
		bias := ep.Bias[i]
		if vec != nil {
			// Without batch norm, μ = 0, γ = 1, inv = 1 leave every value
			// unchanged (v−0, 1·v and v·1 are v, −0 included), so the one
			// kernel serves both forms.
			mu, gamma, inv := float32(0), float32(1), float32(1)
			if ep.Mean != nil {
				mu, gamma, inv = ep.Mean[i], ep.Scale[i], ep.InvStd[i]
			}
			vec(seg, mu, gamma, inv, bias, factor[1])
			continue
		}
		if ep.Mean == nil {
			for j, v := range seg {
				v += bias
				seg[j] = v * factor[math.Float32bits(v)>>31]
			}
			continue
		}
		mu, gamma, inv := ep.Mean[i], ep.Scale[i], ep.InvStd[i]
		for j, v := range seg {
			// The conversion pins the rounding of the normalisation before the
			// bias add, matching the separate passes on FMA-fusing targets.
			v = float32(gamma*(v-mu)*inv) + bias
			seg[j] = v * factor[math.Float32bits(v)>>31]
		}
	}
}

// convTap is one row of the implicit im2col matrix: kernel tap (kh, kw) of
// input channel ch, and its offset in x from a window's top-left pixel in
// channel 0.
type convTap struct {
	ch, kh, kw, off int
}

// taps fills dst with the geometry's C·Ksize² rows in im2col order.
func (g *ConvGeom) taps(dst []convTap) {
	p := 0
	for ch := 0; ch < g.C; ch++ {
		for kh := 0; kh < g.Ksize; kh++ {
			for kw := 0; kw < g.Ksize; kw++ {
				dst[p] = convTap{ch: ch, kh: kh, kw: kw, off: (ch*g.H+kh)*g.W + kw}
				p++
			}
		}
	}
}

// fillRow writes im2col row t for the len(dst) consecutive output positions
// starting at output pixel (oh, ow), zero where the window reaches into the
// padding.
func (g *ConvGeom) fillRow(x []float32, t convTap, oh, ow, outW int, dst []float32) {
	plane := x[t.ch*g.H*g.W : (t.ch+1)*g.H*g.W]
	for len(dst) > 0 {
		run := min(len(dst), outW-ow)
		d := dst[:run]
		ih := oh*g.Stride - g.Pad + t.kh
		iw := ow*g.Stride - g.Pad + t.kw
		switch {
		case ih < 0 || ih >= g.H:
			clear(d)
		case g.Stride == 1:
			// Contiguous source run with the edges clamped into the padding.
			lo := min(max(0, -iw), run)
			hi := max(min(run, g.W-iw), lo)
			clear(d[:lo])
			if lo < hi {
				copy(d[lo:hi], plane[ih*g.W+iw+lo:])
			}
			clear(d[hi:])
		default:
			row := plane[ih*g.W : (ih+1)*g.W]
			for i := range d {
				if iw >= 0 && iw < g.W {
					d[i] = row[iw]
				} else {
					d[i] = 0
				}
				iw += g.Stride
			}
		}
		dst = dst[run:]
		ow = 0
		oh++
	}
}

// move8 copies one 8-wide panel row as two inline 16-byte moves for
// packBConvF32's direct loop: a memmove call costs more than the copy at
// this size, and the compiler inlines a fixed-size move only up to 16 bytes
// unless it can prove the operands disjoint.
func move8(d, s *[8]float32) {
	*(*[4]float32)(d[0:4]) = *(*[4]float32)(s[0:4])
	*(*[4]float32)(d[4:8]) = *(*[4]float32)(s[4:8])
}

// directOrigin reports whether the nr-wide panel at output column j0 is
// direct — stride 1, full, inside one output row, and with every window
// clear of the padding — and if so the index in x of its first window's
// top-left pixel in channel 0. Im2col row t of a direct panel is then the nr
// consecutive floats at that index + t.off.
func (g *ConvGeom) directOrigin(outW, j0, cols, nr int) (int, bool) {
	oh, ow := j0/outW, j0%outW
	ih0, iw0 := oh*g.Stride-g.Pad, ow*g.Stride-g.Pad
	if g.Stride == 1 && cols == nr && ow+nr <= outW &&
		ih0 >= 0 && ih0+g.Ksize <= g.H && iw0 >= 0 && iw0+g.Ksize-1+nr <= g.W {
		return ih0*g.W + iw0, true
	}
	return 0, false
}

// packBConvF32 packs cols [j0, j0+cols) of im2col rows taps (one K block of
// g.taps) of x into dst (len nr*len(taps)) in packBF32's panel layout,
// zero-padding missing columns. A stride-1 panel inside one output row reads
// nr consecutive input floats per row. A direct panel (directOrigin) is one
// such copy per tap; taskConvTilesF32 packs it only on families without
// f32Direct (portable, 8 wide).
func packBConvF32(g *ConvGeom, outW int, taps []convTap, x []float32, j0, cols int, dst []float32, nr int) {
	if base, ok := g.directOrigin(outW, j0, cols, nr); ok {
		origin := x[base:]
		switch nr {
		case 8:
			for p, t := range taps {
				move8((*[8]float32)(dst[p*8:]), (*[8]float32)(origin[t.off:]))
			}
		default:
			for p, t := range taps {
				copy(dst[p*nr:p*nr+nr], origin[t.off:])
			}
		}
		return
	}
	oh, ow := j0/outW, j0%outW
	ih0, iw0 := oh*g.Stride-g.Pad, ow*g.Stride-g.Pad
	direct := g.Stride == 1 && cols == nr && ow+nr <= outW
	for p, t := range taps {
		d := dst[p*nr : p*nr+nr]
		ih, iw := ih0+t.kh, iw0+t.kw
		if direct && ih >= 0 && ih < g.H && iw >= 0 && iw+nr <= g.W {
			copy(d, x[ih0*g.W+iw0+t.off:])
		} else {
			g.fillRow(x, t, oh, ow, outW, d[:cols])
			clear(d[cols:])
		}
	}
}

// ConvPrepacked computes one image's convolution output c (pre.M() rows ×
// OutH·OutW columns, dense) from the CHW input x: c = pre · im2col(x)
// followed by ep, with pre the layer's pre-packed filter matrix (M filters ×
// C·Ksize² fan-in). Like GemmPrepacked it repacks the filters on the fly
// when the active kernel family no longer matches the pack, and runs
// sub-threshold problems on serial loops in the naive GEMM's accumulation
// order — so the output always equals the Im2col + GemmPrepacked lowering
// bit for bit.
func ConvPrepacked(pre *PackedA, g ConvGeom, x []float32, ep Epilogue, c []float32) {
	m, k := pre.m, pre.k
	if k != g.C*g.Ksize*g.Ksize {
		panic("tensor: ConvPrepacked filter fan-in does not match the geometry")
	}
	n := g.OutH() * g.OutW()
	if g.Ksize == 1 && g.Stride == 1 && g.Pad == 0 {
		// Pointwise: the column matrix is the input itself; viewing each
		// channel plane as one long row keeps every full panel a direct copy.
		g.H, g.W = 1, n
	}
	ctx := gemmCtxPool.Get().(*gemmCtx)
	defer ctx.release()
	ctx.geom, ctx.ep = g, ep
	ctx.m, ctx.n, ctx.k = m, n, k
	ctx.b, ctx.c, ctx.ldc = x, c, n
	ctx.taps = reslice(ctx.taps, k)
	g.taps(ctx.taps)
	kern := currentKernels()
	ctx.setKernels(kern)
	if int64(m)*int64(n)*int64(k) < packThreshold {
		ctx.pb = reslice(ctx.pb, n)
		convNaive(pre, ctx)
		return
	}
	if kern.f32Direct != nil {
		ctx.offs = reslice(ctx.offs, k)
		for p, t := range ctx.taps {
			ctx.offs[p] = t.off
		}
	}
	ctx.nStrips = (m + kern.mr - 1) / kern.mr
	packed := pre.data
	if kern != pre.kern {
		ctx.pa = reslice(ctx.pa, ctx.nStrips*kern.mr*k)
		packAPanels(pre.ta, pre.a, pre.lda, m, k, pre.alpha, ctx.pa, kern.mr)
		packed = ctx.pa
	}
	nPanels := (n + kern.nr - 1) / kern.nr
	for kk := 0; kk < k; kk += kcBlock {
		ctx.kk = kk
		ctx.kc = min(kcBlock, k-kk)
		ctx.paRO = packed[ctx.nStrips*kern.mr*kk : ctx.nStrips*kern.mr*(kk+ctx.kc)]
		gemmParallel(ctx, nPanels, taskConvTilesF32)
	}
}

// taskConvTilesF32 is the fused per-panel stage of ConvPrepacked for panels
// [lo, hi) of the current K block: clear the tile's C rows on the first K
// block, run every A strip against the panel — read in place when it is
// direct and the family has f32Direct, packed from the input otherwise —
// and on the last K block apply the epilogue to each run of at least
// epilogueRun finished columns, while they are still in cache.
func taskConvTilesF32(ctx *gemmCtx, lo, hi int) {
	ts := tileScratchPool.Get().(*tileScratch)
	pb := ts.panel[:ctx.kc*ctx.nr]
	g := &ctx.geom
	outW, taps := g.OutW(), ctx.taps[ctx.kk:ctx.kk+ctx.kc]
	first, last := ctx.kk == 0, ctx.kk+ctx.kc == ctx.k
	epFrom := lo * ctx.nr
	for pn := lo; pn < hi; pn++ {
		j0 := pn * ctx.nr
		cols := min(ctx.nr, ctx.n-j0)
		if first {
			for i := 0; i < ctx.m; i++ {
				clear(ctx.c[i*ctx.ldc+j0 : i*ctx.ldc+j0+cols])
			}
		}
		if base, ok := g.directOrigin(outW, j0, cols, ctx.nr); ok && ctx.kf32Direct != nil {
			ctx.panelTilesDirectF32(ts, ctx.b[base:], ctx.offs[ctx.kk:ctx.kk+ctx.kc], j0)
		} else {
			packBConvF32(g, outW, taps, ctx.b, j0, cols, pb, ctx.nr)
			ctx.panelTilesF32(ts, pb, j0, cols)
		}
		if end := j0 + cols; last && (end-epFrom >= epilogueRun || pn == hi-1) {
			ctx.ep.apply(ctx.kepi, ctx.c, ctx.ldc, ctx.m, epFrom, end-epFrom)
			epFrom = end
		}
	}
	tileScratchPool.Put(ts)
}

// convNaive is ConvPrepacked below packThreshold: one im2col row at a time
// through ctx.pb (len n), accumulated in gemmNaive's order — for every
// output element, p ascending with zero weights skipped.
func convNaive(pre *PackedA, ctx *gemmCtx) {
	g, n, c, row := &ctx.geom, ctx.n, ctx.c, ctx.pb
	outW := g.OutW()
	clear(c[:ctx.m*n])
	for p, t := range ctx.taps {
		g.fillRow(ctx.b, t, 0, 0, outW, row)
		for i := 0; i < ctx.m; i++ {
			av := pre.alpha * aAt(pre.ta, pre.a, pre.lda, i, p)
			if av == 0 {
				continue
			}
			crow := c[i*n : (i+1)*n]
			for j, bv := range row {
				crow[j] += av * bv
			}
		}
	}
	ctx.ep.apply(ctx.kepi, c, n, ctx.m, 0, n)
}
