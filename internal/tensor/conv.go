package tensor

import (
	"math"
	"runtime"
)

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
// The padded-plane rule: a panel is read in place, unpacked, only when it
// is stride 1, full, inside one output row, and none of its windows reaches
// into the padding. A caller that runs a padded stride-1 convolution
// therefore copies its input once into zero-bordered planes (PadCHW) and
// passes the Pad 0 geometry, as layers.Conv2D does per image. Every full
// panel inside an output row is then read in place; only the panels that
// cross an output row or end the map are packed.
//
// Four stages have vector forms hung off the kernel family (kernel.go), and
// like the tile kernels they follow the selected family — portable has
// none, so it runs the Go code below:
//
//   - f32Direct: a panel the padded-plane rule admits (and every full
//     pointwise panel) is not packed at all; the kernel reads each tap's nr
//     floats from the input where they lie, at the K block's tap offsets
//     (offs).
//   - f32DirectFinish: when the whole fan-in fits one K block, such a panel
//     leaves the kernel finished. Each strip stores the epilogue of acc+0
//     straight into C, so the panel needs no clear, no load of C, no
//     epilogue pass and, for an edge strip of fewer than MR filters, no
//     scratch tile. The kernel computes the strip's live rows only, and a
//     last strip of r ≤ MR/2 filters takes MR/r adjacent direct panels of
//     one output row a call, so a thin strip keeps as many independent
//     accumulators as a full one.
//   - f32Rank1: below packThreshold, one tap's im2col row updates every
//     filter's C row in one call (convNaive).
//   - epilogue: the per-channel BN/bias/leaky row for every other panel,
//     applied once per run of at least epilogueRun columns rather than per
//     panel.
//
// The result is bit-identical to Im2col → GemmPrepacked → BN → bias → Leaky:
// the packed panels (or the in-place rows) hold exactly the values packBF32
// would read from the column matrix — a padded plane's border holds the
// zeros fillRow writes — the kernels and the k-block order are the same,
// and the epilogue performs the same float32 operations in the same order.
// The finishing store's acc+0 equals a cleared C's 0+acc for every value,
// −0 and NaN included, because IEEE addition is commutative.

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

// PadCHW copies the c×h×w image x into dst as c planes of
// (h+2·pad)×(w+2·pad) floats with a zero border pad wide. A stride-1
// convolution of x with padding pad equals, bit for bit, the same
// convolution of dst with padding 0: the padded-plane rule above.
func PadCHW(x []float32, c, h, w, pad int, dst []float32) {
	pw := w + 2*pad
	size := (h + 2*pad) * pw
	for ch := 0; ch < c; ch++ {
		src, plane := x[ch*h*w:(ch+1)*h*w], dst[ch*size:(ch+1)*size]
		i := pad*pw + pad // the first interior pixel
		clear(plane[:i])
		for y := 0; y < h; y++ {
			copy(plane[i:i+w], src[y*w:])
			// A row's right border runs on into the next row's left one,
			// and after the last row into the bottom border.
			end := i + w + 2*pad
			if y == h-1 {
				end = size
			}
			clear(plane[i+w : end])
			i = end
		}
	}
}

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
// consecutive floats at that index + t.off. On a PadCHW plane (Pad 0) the
// last condition always holds.
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
// zero-padding missing columns. A direct panel (directOrigin) is one copy of
// nr consecutive input floats per tap; taskConvTilesF32 packs it only on
// families without f32Direct (portable, 8 wide). Every other panel is filled
// tap by tap through fillRow.
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
	for p, t := range taps {
		d := dst[p*nr : p*nr+nr]
		g.fillRow(x, t, oh, ow, outW, d[:cols])
		clear(d[cols:])
	}
}

// ConvPrepacked computes one image's convolution output c (pre.M() rows ×
// OutH·OutW columns, dense) from the CHW input x: c = pre · im2col(x)
// followed by ep, with pre the layer's pre-packed filter matrix (M filters ×
// C·Ksize² fan-in). Like GemmPrepacked it repacks the filters on the fly
// when the active kernel family no longer matches the pack, and runs
// sub-threshold problems on serial loops in the naive GEMM's accumulation
// order — so the output always equals the Im2col + GemmPrepacked lowering
// bit for bit. Any geometry is accepted; a padded stride-1 one runs fastest
// as a PadCHW plane with Pad 0, where every full panel inside an output row
// is read in place and, when the fan-in fits one K block on a family with
// f32DirectFinish, stored finished.
func ConvPrepacked(pre *PackedA, g ConvGeom, x []float32, ep Epilogue, c []float32) {
	ctx, packed := startConv(pre, g, x, ep)
	defer ctx.release()
	ctx.c, ctx.ldc = c, ctx.n
	if packed == nil {
		convNaive(pre, ctx)
		return
	}
	nPanels := (ctx.n + ctx.nr - 1) / ctx.nr
	for kk := 0; kk < ctx.k; kk += kcBlock {
		ctx.kk = kk
		ctx.kc = min(kcBlock, ctx.k-kk)
		ctx.paRO = packed[ctx.nStrips*ctx.mr*kk : ctx.nStrips*ctx.mr*(kk+ctx.kc)]
		gemmParallel(ctx, nPanels, taskConvTilesF32)
	}
}

// Pool2x2Fused reports whether ConvPool2x2Prepacked runs the geometry: an
// output of even height and width, so that every 2×2/2 window lies inside
// it, and a fan-in that fits one K block, so that a band of output rows is
// finished in one pass over its panels.
func (g ConvGeom) Pool2x2Fused() bool {
	return g.OutH()%2 == 0 && g.OutW()%2 == 0 && g.C*g.Ksize*g.Ksize <= kcBlock
}

// poolBandFloats bounds the conv rows one ConvPool2x2Prepacked task holds
// at a time (32 KB, about one L1 data cache), unless a single row pair of
// every filter is larger.
const poolBandFloats = 8 << 10

// ConvPool2x2Prepacked is ConvPrepacked followed by a 2×2 stride-2 max-pool
// of its output, in one pass that never stores the full-resolution map: c
// is the pooled output, pre.M() planes of OutH/2 × OutW/2. The geometry must
// satisfy Pool2x2Fused. The tasks run the convolution over bands of output
// row pairs into per-task scratch (tileScratch.band) — the same panels,
// kernels and epilogue as ConvPrepacked, and below packThreshold the same
// convNaive over the whole map — and pool each band into c through
// MaxPoolPlane2x2's code, so c equals ConvPrepacked followed by
// layers.MaxPool's 2×2/2 inference pass bit for bit.
func ConvPool2x2Prepacked(pre *PackedA, g ConvGeom, x []float32, ep Epilogue, c []float32) {
	if !g.Pool2x2Fused() {
		panic("tensor: ConvPool2x2Prepacked needs an even output and a fan-in of one K block")
	}
	outH, outW := g.OutH(), g.OutW()
	ctx, packed := startConv(pre, g, x, ep)
	defer ctx.release()
	ctx.pool, ctx.poolH, ctx.poolW = c, outH, outW
	if packed == nil {
		ts := tileScratchPool.Get().(*tileScratch)
		ts.band = reslice(ts.band, ctx.m*ctx.n)
		ctx.c, ctx.ldc = ts.band, ctx.n
		convNaive(pre, ctx)
		ctx.poolBand(ts.band, 0, outH)
		tileScratchPool.Put(ts)
		return
	}
	ctx.kk, ctx.kc = 0, ctx.k
	ctx.paRO = packed[:ctx.nStrips*ctx.mr*ctx.k]
	// As few bands as poolBandFloats allows, but as many as gemmParallel has
	// workers, in a multiple of them, and of even size, so that the workers
	// share the map evenly.
	pairs, most := outH/2, max(1, poolBandFloats/(2*ctx.m*outW))
	bands := (pairs + most - 1) / most
	if w := min(runtime.GOMAXPROCS(0), maxGemmWorkers); bands%w != 0 {
		bands = min(pairs, (bands/w+1)*w)
	}
	ctx.bandRows = 2 * ((pairs + bands - 1) / bands)
	gemmParallel(ctx, (outH+ctx.bandRows-1)/ctx.bandRows, taskConvPoolF32)
}

// startConv sets a pooled context up for one image's implicit-GEMM
// convolution: geometry, taps, the kernel family and, on the packed path,
// the direct offsets, the finishing kernel and the filter panels of that
// family, which it returns. It returns nil panels when the problem is below
// packThreshold, for convNaive.
func startConv(pre *PackedA, g ConvGeom, x []float32, ep Epilogue) (*gemmCtx, []float32) {
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
	ctx.geom, ctx.ep = g, ep
	ctx.m, ctx.n, ctx.k = m, n, k
	ctx.b = x
	ctx.taps = reslice(ctx.taps, k)
	g.taps(ctx.taps)
	kern := currentKernels()
	ctx.setKernels(kern)
	if int64(m)*int64(n)*int64(k) < packThreshold {
		return ctx, nil
	}
	if kern.f32Direct != nil {
		ctx.offs = reslice(ctx.offs, k)
		for p, t := range ctx.taps {
			ctx.offs[p] = t.off
		}
	}
	ctx.nStrips = (m + kern.mr - 1) / kern.mr
	if kern.f32DirectFinish != nil && k <= kcBlock {
		ctx.kf32Finish = kern.f32DirectFinish
		ctx.packEpilogue(kern.mr)
		// A last strip of r ≤ mr/2 filters takes mr/r adjacent panels a
		// call: the area of one full strip's tile, so as many independent
		// accumulators.
		ctx.finishPanels = 1
		if r := m - (ctx.nStrips-1)*kern.mr; 2*r <= kern.mr {
			ctx.finishPanels = kern.mr / r
		}
	}
	if kern == pre.kern {
		return ctx, pre.data
	}
	ctx.pa = reslice(ctx.pa, ctx.nStrips*kern.mr*k)
	packAPanels(pre.ta, pre.a, pre.lda, m, k, pre.alpha, ctx.pa, kern.mr)
	return ctx, ctx.pa
}

// packEpilogue lays ctx.ep out for kf32Finish strip by strip, like the
// packed filters: strip s holds its mr rows' μ, then their γ, inv, bias and
// slope, mr floats each. Without batch norm μ, γ, inv are 0, 1, 1, and a
// linear layer's slope is 1: identities, as in apply.
func (ctx *gemmCtx) packEpilogue(mr int) {
	ep := &ctx.ep
	slope := float32(1)
	if ep.Leaky {
		slope = leakyFactor[1]
	}
	ctx.epPack = reslice(ctx.epPack, ctx.nStrips*5*mr)
	clear(ctx.epPack)
	for i := 0; i < ctx.m; i++ {
		p := ctx.epPack[i/mr*5*mr+i%mr:]
		p[0], p[mr], p[2*mr], p[3*mr], p[4*mr] = 0, 1, 1, ep.Bias[i], slope
		if ep.Mean != nil {
			p[0], p[mr], p[2*mr] = ep.Mean[i], ep.Scale[i], ep.InvStd[i]
		}
	}
}

// taskConvTilesF32 is ConvPrepacked's tile stage: panels [lo, hi) of the
// current K block, into C.
func taskConvTilesF32(ctx *gemmCtx, lo, hi int) {
	ts := tileScratchPool.Get().(*tileScratch)
	jlo := lo * ctx.nr
	ctx.convPanels(ts, ctx.c[jlo:], ctx.ldc, jlo, min(hi*ctx.nr, ctx.n))
	tileScratchPool.Put(ts)
}

// taskConvPoolF32 is ConvPool2x2Prepacked's stage: for each band [lo, hi)
// of bandRows output rows, the band's conv rows into the task's scratch,
// then their 2×2/2 pool into the pooled output.
func taskConvPoolF32(ctx *gemmCtx, lo, hi int) {
	ts := tileScratchPool.Get().(*tileScratch)
	outW := ctx.poolW
	ts.band = reslice(ts.band, ctx.m*ctx.bandRows*outW)
	for band := lo; band < hi; band++ {
		oh0 := band * ctx.bandRows
		oh1 := min(oh0+ctx.bandRows, ctx.poolH)
		ldc := (oh1 - oh0) * outW
		ctx.convPanels(ts, ts.band, ldc, oh0*outW, oh1*outW)
		ctx.poolBand(ts.band[:ctx.m*ldc], oh0, oh1)
	}
	tileScratchPool.Put(ts)
}

// poolBand pools output rows [oh0, oh1) of every filter, held in band as m
// rows of (oh1−oh0)·OutW columns, into the pooled output.
func (ctx *gemmCtx) poolBand(band []float32, oh0, oh1 int) {
	outW, pw, rows := ctx.poolW, ctx.poolW/2, oh1-oh0
	for i := 0; i < ctx.m; i++ {
		dst := ctx.pool[(i*ctx.poolH+oh0)/2*pw:][:rows/2*pw]
		poolPlane2x2(ctx.kpool, band[i*rows*outW:(i+1)*rows*outW], rows, outW, dst, pw, 2)
	}
}

// convPanels is the fused per-panel stage of the implicit-GEMM convolution
// for output columns [jlo, jhi) of the current K block, in nr-wide panels
// from jlo, into the C view c whose column 0 is output column jlo (row
// stride ldc). Under kf32Finish a direct panel is done in one kernel call
// per strip, which stores finished rows. Every other panel clears its C rows
// on the first K block, runs every A strip against the panel — read in
// place when it is direct and the family has f32Direct, packed from the
// input otherwise — and on the last K block takes the epilogue with the run
// of unfinished columns before it, once the run is epilogueRun columns
// long, a finished panel follows, or the range ends, while the columns are
// still in cache.
func (ctx *gemmCtx) convPanels(ts *tileScratch, c []float32, ldc, jlo, jhi int) {
	pb := ts.panel[:ctx.kc*ctx.nr]
	g := &ctx.geom
	outW, taps := g.OutW(), ctx.taps[ctx.kk:ctx.kk+ctx.kc]
	first, last := ctx.kk == 0, ctx.kk+ctx.kc == ctx.k
	epFrom := jlo
	for j0 := jlo; j0 < jhi; j0 += ctx.nr {
		cols := min(ctx.nr, jhi-j0)
		base, direct := g.directOrigin(outW, j0, cols, ctx.nr)
		direct = direct && ctx.kf32Direct != nil
		if direct && ctx.kf32Finish != nil {
			if epFrom < j0 {
				ctx.ep.apply(ctx.kepi, c, ldc, ctx.m, epFrom-jlo, j0-epFrom)
			}
			// The direct panels that follow in this range and output row
			// read on from the same origin.
			panels := 1
			for ; panels < ctx.finishPanels; panels++ {
				jn := j0 + panels*ctx.nr
				if jn >= jhi {
					break
				}
				b, ok := g.directOrigin(outW, jn, min(ctx.nr, jhi-jn), ctx.nr)
				if !ok || b != base+panels*ctx.nr {
					break
				}
			}
			ctx.panelTilesFinishF32(ctx.b[base:], c[j0-jlo:], ldc, panels)
			j0 += (panels - 1) * ctx.nr
			epFrom = j0 + ctx.nr
			continue
		}
		if first {
			for i := 0; i < ctx.m; i++ {
				clear(c[i*ldc+j0-jlo : i*ldc+j0-jlo+cols])
			}
		}
		if direct {
			ctx.panelTilesDirectF32(ts, ctx.b[base:], ctx.offs[ctx.kk:ctx.kk+ctx.kc], c[j0-jlo:], ldc)
		} else {
			packBConvF32(g, outW, taps, ctx.b, j0, cols, pb, ctx.nr)
			ctx.panelTilesF32(ts, pb, c[j0-jlo:], ldc, cols)
		}
		if end := j0 + cols; last && (end-epFrom >= epilogueRun || end == jhi) {
			ctx.ep.apply(ctx.kepi, c, ldc, ctx.m, epFrom-jlo, end-epFrom)
			epFrom = end
		}
	}
}

// convNaive is ConvPrepacked below packThreshold, in gemmNaive's
// accumulation order: for every output element, taps ascending, zero
// weights skipped, each product rounded before its add. It takes one tap at
// a time and updates every filter's C row with the tap's im2col row and its
// column of weights (PackedA.tapMajor) in one call: the family's f32Rank1,
// or rank1Go.
//
// On a stride-1 Pad 0 geometry — a padded plane, or a pointwise layer's
// channel planes — output pixel (oh, ow) of tap t reads x[t.off+oh·W+ow],
// so every tap's row is read in place as the span of x from t.off, and C is
// accumulated W columns a row (into ctx.pb, unless W is the output width or
// the map one row high) and compacted once the taps are done; the columns
// past the output width are never kept. Any other geometry fills each
// im2col row into ctx.pb.
func convNaive(pre *PackedA, ctx *gemmCtx) {
	g, m, n := &ctx.geom, ctx.m, ctx.n
	outW := g.OutW()
	pw := pre.tapMajor()
	rank1 := ctx.kRank1
	if rank1 == nil {
		rank1 = rank1Go
	}
	inPlace := g.Stride == 1 && g.Pad == 0
	c, ldc := ctx.c, n
	if inPlace {
		ldc = (n/outW-1)*g.W + outW
	}
	switch {
	case !inPlace:
		ctx.pb = reslice(ctx.pb, n)
	case ldc != n:
		ctx.pb = reslice(ctx.pb, m*ldc)
		c = ctx.pb
	}
	clear(c[:m*ldc])
	for p, t := range ctx.taps {
		row := ctx.pb
		if inPlace {
			row = ctx.b[t.off : t.off+ldc]
		} else {
			g.fillRow(ctx.b, t, 0, 0, outW, row)
		}
		rank1(pw[p*m:(p+1)*m], row, c, ldc)
	}
	if ldc != n {
		for i := 0; i < m; i++ {
			for oh := 0; oh*outW < n; oh++ {
				copy(ctx.c[i*n+oh*outW:i*n+(oh+1)*outW], c[i*ldc+oh*g.W:])
			}
		}
	}
	ctx.ep.apply(ctx.kepi, ctx.c, n, m, 0, n)
}

// rank1Go is the Go form of the f32Rank1 family entry (kernel.go): for every
// i < len(w) whose w[i] is not zero, c[i·ldc+j] += float32(w[i]·row[j]) for
// every j < len(row), the product rounded before the add on FMA-fusing
// targets too, as gemmNN rounds it.
func rank1Go(w, row, c []float32, ldc int) {
	for i, av := range w {
		if av == 0 {
			continue
		}
		crow := c[i*ldc : i*ldc+len(row)]
		for j, bv := range row {
			crow[j] += float32(av * bv)
		}
	}
}
