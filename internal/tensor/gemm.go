package tensor

import (
	"runtime"
	"sync"
)

// This file implements the framework's single numeric hot spot as a
// BLIS-style packed, cache-blocked GEMM:
//
//   - the k dimension is tiled into kcBlock panels so a packed slab of B
//     stays cache-resident while row strips of A stream through;
//   - the n dimension is tiled into ncBlock chunks bounding the packed-B
//     slab (ncBlock·kcBlock floats ≈ 1 MB, L2-sized);
//   - inside a chunk, an MR×NR register-blocked microkernel runs over
//     MR-interleaved A strips and NR-interleaved B panels produced by
//     pack.go, with MR×NR the register tile of the microkernel family
//     selected at runtime (kernel.go): 6×16 AVX2/FMA or the 4×8
//     portable Go kernels.
//
// Work is parallelized across both row strips (packing A) and column panels
// (packing B and running tiles) on a persistent worker pool; task payloads
// are plain structs carrying a pooled context, so a steady-state Gemm call
// performs zero heap allocations regardless of worker count. The tile
// decomposition is independent of the worker count and each tile's k-loop
// runs in a fixed order, so results are deterministic for any GOMAXPROCS
// (and exact for the int8 driver in int8.go, which shares this machinery).
//
// The A side can also arrive pre-packed (prepack.go): GemmPrepacked skips
// the per-call A pack entirely and points the tile stage at a shared
// read-only slab packed once at model build time. The context therefore
// separates paRO — the view the tile stage reads — from pa, the scratch the
// pack stage owns; the prepacked path must never let pooled reuse hand a
// shared weight slab out as writable scratch.
//
// The inference convolution (conv.go) runs on the same tile stage with the B
// side read in place: ConvPrepacked packs each B panel from the CHW input
// into per-task scratch, right before the tiles that consume it — or, for a
// full panel inside one output row on a family with a direct kernel, lets
// the kernel read it in place — and applies the layer's
// batch-norm/bias/activation epilogue to the finished tiles, or has the
// family's finishing kernel store them finished when the fan-in fits one K
// block.
//
// Tiny problems fall through to the naive register-free loops at the bottom
// of this file: below packThreshold the packing traffic would dominate.

const (
	// kcBlock is the K-dimension panel depth: one packed B panel is
	// kcBlock×NR floats (L1-resident), one packed A block is m×kcBlock
	// floats.
	kcBlock = 256
	// ncBlock bounds the packed-B slab per chunk (kcBlock·ncBlock floats =
	// 1 MB) and is the unit across which column-panel tasks are spread.
	ncBlock = 1024
	// packThreshold is the m·n·k volume below which Gemm uses the naive
	// loops: packing pays off only once each packed element is reused
	// across several tiles.
	packThreshold = 1 << 15
	// maxGemmWorkers caps the persistent worker pool.
	maxGemmWorkers = 64
)

// Gemm computes C = alpha*op(A)*op(B) + beta*C for row-major matrices,
// where op transposes its argument when ta/tb is true. A is M×K (or K×M if
// transposed), B is K×N (or N×K), and C is M×N. This is the single numeric
// hot spot of the framework: convolution forward and both backward passes
// all lower to one Gemm call each.
//
// Large problems run on the packed cache-blocked driver; because the packed
// microkernel accumulates each output tile in a different order than the
// naive loops, float32 results may differ from them by reassociation
// rounding (the driver itself is deterministic for any worker count; the
// selected microkernel family shifts results only by the same kind of
// reassociation/contraction rounding).
func Gemm(ta, tb bool, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	gemmScaleC(beta, m, n, c, ldc)
	if alpha == 0 {
		return
	}
	if int64(m)*int64(n)*int64(k) >= packThreshold {
		gemmPacked(currentKernels(), ta, tb, m, n, k, alpha, a, lda, b, ldb, c, ldc, nil)
		return
	}
	gemmNaive(ta, tb, m, n, k, alpha, a, lda, b, ldb, c, ldc)
}

// gemmScaleC applies the beta prologue: C *= beta (clear when beta == 0).
func gemmScaleC(beta float32, m, n int, c []float32, ldc int) {
	if beta == 1 {
		return
	}
	for i := 0; i < m; i++ {
		row := c[i*ldc : i*ldc+n]
		if beta == 0 {
			for j := range row {
				row[j] = 0
			}
		} else {
			for j := range row {
				row[j] *= beta
			}
		}
	}
}

// gemmNaive routes to the serial register-free loops.
func gemmNaive(ta, tb bool, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	switch {
	case !ta && !tb:
		gemmNN(m, n, k, alpha, a, lda, b, ldb, c, ldc)
	case ta && !tb:
		gemmTN(m, n, k, alpha, a, lda, b, ldb, c, ldc)
	case !ta && tb:
		gemmNT(m, n, k, alpha, a, lda, b, ldb, c, ldc)
	default:
		gemmTT(m, n, k, alpha, a, lda, b, ldb, c, ldc)
	}
}

// gemmCtx is the pooled state of one packed GEMM invocation: the kernel
// family captured at entry, the problem geometry, the current block
// coordinates, and the grow-once pack slabs. Pooling the context (and
// passing it by pointer through the task structs) is what keeps the
// steady-state driver allocation-free.
type gemmCtx struct {
	wg sync.WaitGroup

	// Kernel family captured at Gemm entry: register tile, tile kernels and
	// the convolution's vector stages (nil when the family has none).
	mr, nr     int
	kf32       func(kc int, pa, pb []float32, c []float32, ldc int)
	ki8        func(kPairs int, pa, pb []int16, requant, bias []float32, slope float32, c []float32, ldc int)
	ki8Direct  func(kPairs int, pa, origin []int16, offs []int, requant, bias []float32, slope float32, c []float32, ldc, rows int)
	kf32Direct func(kc int, pa, origin []float32, offs []int, c []float32, ldc int)
	kepi       func(seg []float32, mu, gamma, inv, bias, slope float32)
	// kf32Finish is the family's f32DirectFinish while a ConvPrepacked
	// fan-in fits one K block, nil otherwise; finishPanels is the most
	// adjacent direct panels one of its calls covers.
	kf32Finish   func(kc int, pa, origin []float32, offs []int, ep []float32, c []float32, ldc, rows, panels int)
	finishPanels int
	kRank1       func(w, row, c []float32, ldc int)
	kpool        func(r0, r1, d []float32) int

	ta, tb  bool
	m, n, k int
	alpha   float32
	a, b, c []float32
	lda     int
	ldb     int
	ldc     int

	kk, kc  int // current K panel
	jj, nc  int // current N chunk
	nStrips int

	pa []float32 // owned A-pack scratch: nStrips strips of MR·kc
	pb []float32 // packed B chunk: panels of NR·kc

	// paRO is the packed-A view the tile stage reads: ctx.pa after the pack
	// stage ran, or a window into a shared pre-packed weight slab
	// (prepack.go). Kept separate from pa so a pooled context can never
	// reuse shared read-only data as scratch for a later call.
	paRO []float32

	// INT8 driver state (int8.go): same blocking, int16-pair panels, and
	// the slope the store applies on the sign bit (1: none).
	a8, b8     []int8
	pa16, pb16 []int16
	pa16RO     []int16
	requant    []float32
	bias       []float32
	slope      float32
	kPairs     int

	// Implicit-GEMM convolution state (conv.go): b is the CHW input, read
	// through geom instead of as a k×n matrix; ep runs on finished tiles.
	geom   ConvGeom
	taps   []convTap // geom's im2col rows
	offs   []int     // taps[p].off, for kf32Direct (int16s of plane for ki8Direct)
	ep     Epilogue
	epPack []float32 // ep strip by strip, for kf32Finish (packEpilogue)

	// Int8 convolution state (convint8.go): the quantized input's pair
	// plane.
	plane []int16

	// Fused 2×2 pool state (ConvPool2x2Prepacked): the pooled output, the
	// conv output's height and width, and the conv rows a band task
	// computes before it pools them.
	pool         []float32
	poolH, poolW int
	bandRows     int
}

var gemmCtxPool = sync.Pool{New: func() any { return new(gemmCtx) }}

// setKernels captures one microkernel family into the context for the whole
// invocation, so a concurrent SelectKernel cannot tear a GEMM across two
// families or mismatch pack layout and kernel shape.
func (ctx *gemmCtx) setKernels(kern *microKernels) {
	ctx.mr, ctx.nr = kern.mr, kern.nr
	ctx.kf32, ctx.ki8, ctx.ki8Direct = kern.f32, kern.i8, kern.i8Direct
	ctx.kf32Direct, ctx.kepi, ctx.kRank1 = kern.f32Direct, kern.epilogue, kern.f32Rank1
	ctx.kpool = kern.maxPool2x2
}

// release clears borrowed references and returns the context to the pool.
func (ctx *gemmCtx) release() {
	ctx.a, ctx.b, ctx.c = nil, nil, nil
	ctx.a8, ctx.b8, ctx.plane, ctx.pool = nil, nil, nil, nil
	ctx.paRO, ctx.pa16RO = nil, nil
	ctx.requant, ctx.bias = nil, nil
	ctx.kf32, ctx.ki8, ctx.ki8Direct = nil, nil, nil
	ctx.kf32Direct, ctx.kepi, ctx.kf32Finish, ctx.kRank1, ctx.kpool = nil, nil, nil, nil, nil
	ctx.ep = Epilogue{}
	gemmCtxPool.Put(ctx)
}

// tileScratch is the per-task workspace: a full register tile at the largest
// geometry any kernel family may declare for edge tiles, padded per-row
// requant/bias vectors for the int8 kernel, and one packed B panel for each
// fused convolution task (conv.go, convint8.go), which packs and consumes a
// panel at a time; the int8 panel spans the whole fan-in, so it grows once
// to the largest seen, as does band, the conv rows a ConvPool2x2Prepacked
// task pools (at most poolBandFloats or one row pair of every filter, and
// below packThreshold the whole small map). Pooled so tile handling stays
// allocation-free (a stack array would escape through the kernel function
// variable).
type tileScratch struct {
	tile    [maxMR * maxNR]float32
	rq      [maxMR]float32
	bs      [maxMR]float32
	panel   [kcBlock * maxNR]float32
	panel16 []int16
	band    []float32
}

var tileScratchPool = sync.Pool{New: func() any { return new(tileScratch) }}

// reslice reuses s's backing array when it suffices for n elements.
func reslice[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// gemmPacked is the blocked fp32 driver. kern is the microkernel family
// captured by the caller. When pre is non-nil it is a full pre-packed A in
// prepack.go's layout (alpha folded in, packed at kern's MR): the per-panel
// A pack stage is skipped and the tile stage reads the shared slab directly.
func gemmPacked(kern *microKernels, ta, tb bool, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, c []float32, ldc int, pre []float32) {
	ctx := gemmCtxPool.Get().(*gemmCtx)
	ctx.setKernels(kern)
	ctx.ta, ctx.tb = ta, tb
	ctx.m, ctx.n, ctx.k = m, n, k
	ctx.alpha = alpha
	ctx.a, ctx.b, ctx.c = a, b, c
	ctx.lda, ctx.ldb, ctx.ldc = lda, ldb, ldc
	ctx.nStrips = (m + ctx.mr - 1) / ctx.mr

	for kk := 0; kk < k; kk += kcBlock {
		ctx.kk = kk
		ctx.kc = min(kcBlock, k-kk)
		if pre != nil {
			// Panels for k-block kk start at nStrips·mr·kk: every prior
			// panel was full kcBlock deep, so the offsets telescope.
			ctx.paRO = pre[ctx.nStrips*ctx.mr*kk : ctx.nStrips*ctx.mr*(kk+ctx.kc)]
		} else {
			ctx.pa = reslice(ctx.pa, ctx.nStrips*ctx.mr*ctx.kc)
			ctx.paRO = ctx.pa
			gemmParallel(ctx, ctx.nStrips, taskPackAF32)
		}
		for jj := 0; jj < n; jj += ncBlock {
			ctx.jj = jj
			ctx.nc = min(ncBlock, n-jj)
			nPanels := (ctx.nc + ctx.nr - 1) / ctx.nr
			ctx.pb = reslice(ctx.pb, nPanels*ctx.nr*ctx.kc)
			gemmParallel(ctx, nPanels, taskPackBF32)
			gemmParallel(ctx, nPanels, taskTilesF32)
		}
	}
	ctx.release()
}

// taskPackAF32 packs A strips [lo, hi) of the current K panel.
func taskPackAF32(ctx *gemmCtx, lo, hi int) {
	for s := lo; s < hi; s++ {
		dst := ctx.pa[s*ctx.mr*ctx.kc : (s+1)*ctx.mr*ctx.kc]
		packAF32(ctx.ta, ctx.a, ctx.lda, ctx.m, s*ctx.mr, ctx.kk, ctx.kc, ctx.alpha, dst, ctx.mr)
	}
}

// taskPackBF32 packs B panels [lo, hi) of the current N chunk.
func taskPackBF32(ctx *gemmCtx, lo, hi int) {
	for pn := lo; pn < hi; pn++ {
		dst := ctx.pb[pn*ctx.nr*ctx.kc : (pn+1)*ctx.nr*ctx.kc]
		packBF32(ctx.tb, ctx.b, ctx.ldb, ctx.n, ctx.jj+pn*ctx.nr, ctx.kk, ctx.kc, dst, ctx.nr)
	}
}

// taskTilesF32 runs the microkernel over panels [lo, hi) × every A strip.
func taskTilesF32(ctx *gemmCtx, lo, hi int) {
	ts := tileScratchPool.Get().(*tileScratch)
	for pn := lo; pn < hi; pn++ {
		j0 := ctx.jj + pn*ctx.nr
		ctx.panelTilesF32(ts, ctx.pb[pn*ctx.nr*ctx.kc:], ctx.c[j0:], ctx.ldc, min(ctx.nr, ctx.n-j0))
	}
	tileScratchPool.Put(ts)
}

// panelTilesF32 runs every A strip of the current K panel against one packed
// B panel covering the first cols columns of the C view c (row stride ldc;
// the tile stages take C at the panel's first column). Full tiles update C
// in place; edge tiles accumulate into the scratch tile first and then add
// only the valid region.
func (ctx *gemmCtx) panelTilesF32(ts *tileScratch, pb, c []float32, ldc, cols int) {
	for s := 0; s < ctx.nStrips; s++ {
		i0 := s * ctx.mr
		rows := min(ctx.mr, ctx.m-i0)
		pa := ctx.paRO[s*ctx.mr*ctx.kc:]
		if rows == ctx.mr && cols == ctx.nr {
			ctx.kf32(ctx.kc, pa, pb, c[i0*ldc:], ldc)
			continue
		}
		clear(ts.tile[:ctx.mr*ctx.nr])
		ctx.kf32(ctx.kc, pa, pb, ts.tile[:], ctx.nr)
		ctx.addEdgeTile(ts, c[i0*ldc:], ldc, rows, cols)
	}
}

// panelTilesDirectF32 is panelTilesF32 for a direct convolution panel
// (conv.go) read in place by kf32Direct: origin is the panel's first window
// in the input and offs the current K block's tap offsets from it. The
// panel is always nr columns wide; an edge strip runs the same kernel into
// the scratch tile. On a padded plane (the padded-plane rule, conv.go)
// every full panel inside one output row comes here, or, when the fan-in
// fits one K block, to panelTilesFinishF32.
func (ctx *gemmCtx) panelTilesDirectF32(ts *tileScratch, origin []float32, offs []int, c []float32, ldc int) {
	for s := 0; s < ctx.nStrips; s++ {
		i0 := s * ctx.mr
		rows := min(ctx.mr, ctx.m-i0)
		pa := ctx.paRO[s*ctx.mr*ctx.kc:]
		if rows == ctx.mr {
			ctx.kf32Direct(ctx.kc, pa, origin, offs, c[i0*ldc:], ldc)
			continue
		}
		clear(ts.tile[:ctx.mr*ctx.nr])
		ctx.kf32Direct(ctx.kc, pa, origin, offs, ts.tile[:], ctx.nr)
		ctx.addEdgeTile(ts, c[i0*ldc:], ldc, rows, ctx.nr)
	}
}

// panelTilesFinishF32 is panelTilesDirectF32 under kf32Finish for panels
// adjacent direct panels of one output row, the first at the C view c: the
// one K block is the whole fan-in, so every strip, an edge strip of fewer
// than mr filters included, stores its finished rows straight into C, in
// one kernel call for all the panels.
func (ctx *gemmCtx) panelTilesFinishF32(origin, c []float32, ldc, panels int) {
	for s := 0; s < ctx.nStrips; s++ {
		i0 := s * ctx.mr
		ctx.kf32Finish(ctx.kc, ctx.paRO[s*ctx.mr*ctx.kc:], origin, ctx.offs[:ctx.kc], ctx.epPack[s*5*ctx.mr:],
			c[i0*ldc:], ldc, min(ctx.mr, ctx.m-i0), panels)
	}
}

// addEdgeTile adds the valid rows × cols of the scratch tile to the C view
// c (row stride ldc).
func (ctx *gemmCtx) addEdgeTile(ts *tileScratch, c []float32, ldc, rows, cols int) {
	for r := 0; r < rows; r++ {
		crow := c[r*ldc:][:cols]
		for j, v := range ts.tile[r*ctx.nr:][:cols] {
			crow[j] += v
		}
	}
}

// gemmTask is one unit of pool work: a phase function applied to an index
// range of the shared context. Plain struct, sent by value — no allocation.
type gemmTask struct {
	fn     func(*gemmCtx, int, int)
	ctx    *gemmCtx
	lo, hi int
}

var (
	gemmPoolMu  sync.Mutex
	gemmTasks   chan gemmTask
	gemmSpawned int
)

// gemmWorkerChan returns the shared task channel, lazily spawning workers up
// to want-1 (the submitting goroutine always executes one chunk inline).
// Workers are persistent: spawning happens only while the observed
// GOMAXPROCS keeps growing, so the steady state takes one mutex and no
// allocation.
func gemmWorkerChan(want int) chan gemmTask {
	gemmPoolMu.Lock()
	if gemmTasks == nil {
		gemmTasks = make(chan gemmTask, 4*maxGemmWorkers)
	}
	for gemmSpawned < want-1 && gemmSpawned < maxGemmWorkers-1 {
		gemmSpawned++
		go gemmWorker(gemmTasks)
	}
	ch := gemmTasks
	gemmPoolMu.Unlock()
	return ch
}

// gemmWorker executes pool tasks forever. Tasks never submit sub-tasks and
// never block on other tasks, so the pool cannot deadlock even when several
// GEMMs from different goroutines interleave on it.
func gemmWorker(ch chan gemmTask) {
	for t := range ch {
		t.fn(t.ctx, t.lo, t.hi)
		t.ctx.wg.Done()
	}
}

// gemmParallel runs fn over [0, total) split across the worker pool, with a
// barrier at the end. fn must be a top-level function (no closure) so the
// call allocates nothing. The split depends only on GOMAXPROCS-sized chunk
// counts, never on timing, and fn's work per index is order-independent
// across chunks, so results do not depend on the worker count.
func gemmParallel(ctx *gemmCtx, total int, fn func(*gemmCtx, int, int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > total {
		workers = total
	}
	if workers > maxGemmWorkers {
		workers = maxGemmWorkers
	}
	if workers <= 1 {
		fn(ctx, 0, total)
		return
	}
	ch := gemmWorkerChan(workers)
	chunk := (total + workers - 1) / workers
	for lo := chunk; lo < total; lo += chunk {
		hi := min(lo+chunk, total)
		ctx.wg.Add(1)
		ch <- gemmTask{fn: fn, ctx: ctx, lo: lo, hi: hi}
	}
	fn(ctx, 0, min(chunk, total))
	ctx.wg.Wait()
}

// --- naive fallback loops (small problems, and the fuzz/test oracle) ---
//
// Only sub-threshold problems reach these, so they run serially and
// closure-free: spawning goroutines (or even building a closure) would cost
// more than the loop itself and would put allocations on the zero-alloc
// serving path, which lowers every convolution — including tiny late-stage
// ones — onto Gemm.

func gemmNN(m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	for kk := 0; kk < k; kk += kcBlock {
		kEnd := kk + kcBlock
		if kEnd > k {
			kEnd = k
		}
		for i := 0; i < m; i++ {
			crow := c[i*ldc : i*ldc+n]
			arow := a[i*lda:]
			for p := kk; p < kEnd; p++ {
				av := alpha * arow[p]
				if av == 0 {
					continue
				}
				brow := b[p*ldb : p*ldb+n]
				for j, bv := range brow {
					// The conversion rounds the product before the add on
					// FMA-fusing targets too, as rank1Go and the f32Rank1
					// kernels do.
					crow[j] += float32(av * bv)
				}
			}
		}
	}
}

func gemmTN(m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	for p := 0; p < k; p++ {
		brow := b[p*ldb : p*ldb+n]
		arow := a[p*lda:]
		for i := 0; i < m; i++ {
			av := alpha * arow[i]
			if av == 0 {
				continue
			}
			crow := c[i*ldc : i*ldc+n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

func gemmNT(m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	for i := 0; i < m; i++ {
		arow := a[i*lda : i*lda+k]
		crow := c[i*ldc : i*ldc+n]
		for j := 0; j < n; j++ {
			brow := b[j*ldb : j*ldb+k]
			var sum float32
			for p, av := range arow {
				sum += av * brow[p]
			}
			crow[j] += alpha * sum
		}
	}
}

func gemmTT(m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	for i := 0; i < m; i++ {
		crow := c[i*ldc : i*ldc+n]
		for j := 0; j < n; j++ {
			var sum float32
			for p := 0; p < k; p++ {
				sum += a[p*lda+i] * b[j*ldb+p]
			}
			crow[j] += alpha * sum
		}
	}
}
