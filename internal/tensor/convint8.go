package tensor

// ConvPrepackedInt8 is the int8 twin of ConvPrepacked: one image's quantized
// convolution with no im2col matrix. It quantizes the float32 input once
// (QuantizeSymmetric's exact semantics) into a zero-bordered plane of
// channel pairs, reads the int8 GEMM's B operand straight from that plane,
// and stores each tile finished: float32(acc)·requant + bias, then the
// leaky slope on the sign bit, in the kernel's store.
//
// The pair plane. Channels 2p and 2p+1 of the padded image share one plane
// whose pixels are int16 pairs:
//
//	plane[2·((p·Hp + y)·Wp + x) + s] = q(x[2p+s][y−Pad][x−Pad])
//
// with Hp×Wp the padded size, zero in the border and in the missing partner
// of an odd last channel. A k-pair of the int8 kernels is one pixel pair,
// so the nr k-pairs of one tap over nr consecutive output pixels are 2·nr
// consecutive int16s: exactly the packed B panel's row for that k-pair. A
// full stride-1 panel inside one output row is therefore read in place — by
// the family's i8Direct kernel where it has one, or as one copy per k-pair —
// and only the other panels are gathered pixel by pixel.
//
// The filters are permuted to match (PackConvInt8): fan-in index
// (p·Ksize² + tap)·2 + s holds the weight of channel 2p+s at that tap, zero
// for the missing partner. Padding with zeros, permuting K and splitting it
// into pairs change nothing in an int32 sum, which is exact in any order;
// the requantizing store is the same unfused multiply then add on every
// family. The result therefore equals quantize → im2col → GemmInt8 → Leaky
// bit for bit, on every kernel family and for any worker count.

// PackedConvInt8 is a quantized convolution's filters packed for
// ConvPrepackedInt8: the geometry they apply to and the permuted filter
// matrix, pre-packed for the int8 kernels. Read-only after PackConvInt8;
// shared freely across replicas.
type PackedConvInt8 struct {
	g     ConvGeom
	pairs int
	a     *PackedAInt8
}

// PackConvInt8 packs m int8 filters w (row-major, m × C·Ksize², im2col fan-in
// order, as a float convolution stores them) for convolutions of geometry g.
func PackConvInt8(g ConvGeom, m int, w []int8) *PackedConvInt8 {
	taps := g.Ksize * g.Ksize
	fanIn := g.C * taps
	pairs := (g.C + 1) / 2
	k := 2 * pairs * taps
	a := make([]int8, m*k)
	for f := 0; f < m; f++ {
		src, dst := w[f*fanIn:(f+1)*fanIn], a[f*k:(f+1)*k]
		for ch := 0; ch < g.C; ch++ {
			for t := 0; t < taps; t++ {
				dst[(ch/2*taps+t)*2+ch%2] = src[ch*taps+t]
			}
		}
	}
	return &PackedConvInt8{g: g, pairs: pairs, a: PackAInt8(m, k, a, k)}
}

// PlaneLen is the int16 scratch ConvPrepackedInt8 needs for the pair plane.
func (pc *PackedConvInt8) PlaneLen() int {
	g := pc.g
	return 2 * pc.pairs * (g.H + 2*g.Pad) * (g.W + 2*g.Pad)
}

// Bytes reports the resident size of the permuted filters and their pack.
func (pc *PackedConvInt8) Bytes() int64 { return int64(len(pc.a.a)) + pc.a.Bytes() }

// ConvPrepackedInt8 computes one image's int8 convolution into c (M rows ×
// OutH·OutW columns, dense) from the CHW float32 input x:
//
//	c[i][j] = leaky(float32(Σ_p w[i][p]·q(im2col(x))[p][j])·requant[i] + bias[i])
//
// with q the symmetric quantizer of the given activation scale and leaky
// applied only when asked for. plane is PlaneLen() int16s of scratch. Like
// ConvPrepacked it repacks the filters on the fly when the active kernel
// family no longer matches the pack. Problems below packThreshold run the
// same kernels, panel after panel on the calling goroutine: with the filters
// pre-packed and the panels read in place there is no packing for a naive
// loop to save, and the worker pool's hand-off would cost more than the work.
func ConvPrepackedInt8(pre *PackedConvInt8, x []float32, scale float32, requant, bias []float32, leaky bool, plane []int16, c []float32) {
	g := pre.g
	fillPairPlane(x, g, scale, plane[:pre.PlaneLen()])
	// The plane holds the padding, so the kernels see a Pad 0 geometry over
	// pixel pairs.
	pg := ConvGeom{C: pre.pairs, H: g.H + 2*g.Pad, W: g.W + 2*g.Pad, Ksize: g.Ksize, Stride: g.Stride}
	n := pg.OutH() * pg.OutW()
	if g.Ksize == 1 && g.Stride == 1 {
		// Pointwise: output j reads pixel j, so one long row keeps every full
		// panel in place.
		pg.H, pg.W = 1, n
	}
	m, k := pre.a.m, pre.a.k
	ctx := gemmCtxPool.Get().(*gemmCtx)
	defer ctx.release()
	kern := currentKernels()
	ctx.setKernels(kern)
	ctx.geom = pg
	ctx.m, ctx.n, ctx.k, ctx.kPairs = m, n, k, k/2
	ctx.plane, ctx.c, ctx.ldc = plane, c, n
	ctx.requant, ctx.bias = requant, bias
	ctx.slope = 1
	if leaky {
		ctx.slope = leakyFactor[1]
	}
	// k-pair t reads pixel pair taps[t].off from a window's origin: channel
	// pair major, tap minor, so the offsets ascend.
	ctx.taps = reslice(ctx.taps, ctx.kPairs)
	pg.taps(ctx.taps)
	ctx.offs = reslice(ctx.offs, ctx.kPairs)
	for t, tp := range ctx.taps {
		ctx.offs[t] = 2 * tp.off
	}
	ctx.nStrips = (m + kern.mr - 1) / kern.mr
	ctx.pa16RO = pre.a.data
	if kern != pre.a.kern {
		stripLen := kern.mr * k
		ctx.pa16 = reslice(ctx.pa16, ctx.nStrips*stripLen)
		for s := 0; s < ctx.nStrips; s++ {
			packAI8(pre.a.a, k, m, k, s*kern.mr, ctx.pa16[s*stripLen:(s+1)*stripLen], kern.mr)
		}
		ctx.pa16RO = ctx.pa16
	}
	nPanels := (n + kern.nr - 1) / kern.nr
	if int64(m)*int64(n)*int64(k) < packThreshold {
		taskConvTilesI8(ctx, 0, nPanels)
		return
	}
	gemmParallel(ctx, nPanels, taskConvTilesI8)
}

// fillPairPlane quantizes the c×h×w image x with the given scale into the
// zero-bordered pair plane of geometry g (see ConvPrepackedInt8).
func fillPairPlane(x []float32, g ConvGeom, scale float32, plane []int16) {
	pw := g.W + 2*g.Pad
	size := 2 * (g.H + 2*g.Pad) * pw
	for p := 0; 2*p < g.C; p++ {
		dst := plane[p*size : (p+1)*size]
		i := 2 * (g.Pad*pw + g.Pad) // the first interior pixel
		clear(dst[:i])
		for y := 0; y < g.H; y++ {
			row := dst[i : i+2*g.W]
			quantizeStrided(x[(2*p*g.H+y)*g.W:][:g.W], scale, row)
			if 2*p+1 < g.C {
				quantizeStrided(x[((2*p+1)*g.H+y)*g.W:][:g.W], scale, row[1:])
			} else {
				for j := 1; j < len(row); j += 2 {
					row[j] = 0
				}
			}
			// A row's right border runs on into the next row's left one, and
			// after the last row into the bottom border.
			end := i + 2*(g.W+2*g.Pad)
			if y == g.H-1 {
				end = size
			}
			clear(dst[i+2*g.W : end])
			i = end
		}
	}
}

// taskConvTilesI8 is the panel stage of ConvPrepackedInt8 for panels
// [lo, hi): a direct panel runs every filter strip in place on a family with
// i8Direct, edge strips included; every other panel is packed from the plane
// and runs the tile kernel.
func taskConvTilesI8(ctx *gemmCtx, lo, hi int) {
	ts := tileScratchPool.Get().(*tileScratch)
	ts.panel16 = reslice(ts.panel16, 2*ctx.nr*ctx.kPairs)
	g := &ctx.geom
	outW := g.OutW()
	stripLen := ctx.mr * 2 * ctx.kPairs
	for pn := lo; pn < hi; pn++ {
		j0 := pn * ctx.nr
		cols := min(ctx.nr, ctx.n-j0)
		if base, ok := g.directOrigin(outW, j0, cols, ctx.nr); ok && ctx.ki8Direct != nil {
			origin := ctx.plane[2*base:]
			for s := 0; s < ctx.nStrips; s++ {
				i0 := s * ctx.mr
				ctx.ki8Direct(ctx.kPairs, ctx.pa16RO[s*stripLen:], origin, ctx.offs, ctx.requant[i0:], ctx.bias[i0:],
					ctx.slope, ctx.c[i0*ctx.ldc+j0:], ctx.ldc, min(ctx.mr, ctx.m-i0))
			}
			continue
		}
		packBConvI8(g, outW, ctx.offs, ctx.plane, j0, cols, ts.panel16, ctx.nr)
		ctx.panelTilesI8(ts, ts.panel16, j0, cols)
	}
	tileScratchPool.Put(ts)
}

// packBConvI8 packs output columns [j0, j0+cols) of the pair plane into dst
// (len 2·nr·len(offs)) in packBI8's panel layout, zero-padding missing
// columns: a direct panel is one copy of 2·nr int16s per k-pair, any other
// is gathered one output pixel at a time.
func packBConvI8(g *ConvGeom, outW int, offs []int, plane []int16, j0, cols int, dst []int16, nr int) {
	if base, ok := g.directOrigin(outW, j0, cols, nr); ok {
		origin := plane[2*base:]
		for t, off := range offs {
			copy(dst[t*2*nr:(t+1)*2*nr], origin[off:])
		}
		return
	}
	oh, ow := j0/outW, j0%outW
	for c := 0; c < cols; c++ {
		origin := plane[2*(oh*g.Stride*g.W+ow*g.Stride):]
		for t, off := range offs {
			d := dst[t*2*nr+2*c:]
			d[0], d[1] = origin[off], origin[off+1]
		}
		if ow++; ow == outW {
			ow, oh = 0, oh+1
		}
	}
	for t := range offs {
		clear(dst[t*2*nr+2*cols : (t+1)*2*nr])
	}
}
