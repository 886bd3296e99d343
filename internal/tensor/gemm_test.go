package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// naiveGemmRef is the register-free reference for the packed driver: plain
// triple loop in ascending-k order, independent of every blocking constant.
func naiveGemmRef(ta, tb bool, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var sum float64
			for p := 0; p < k; p++ {
				sum += float64(aAt(ta, a, lda, i, p)) * float64(bAt(tb, b, ldb, p, j))
			}
			c[i*ldc+j] = alpha*float32(sum) + beta*c[i*ldc+j]
		}
	}
}

// relClose reports |x-y| <= tol * max(1, |x|, |y|).
func relClose(x, y, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	return math.Abs(x-y) <= tol*scale
}

// TestGemmPackedMatchesNaive drives the packed blocked driver (every size
// here is above packThreshold) against the float64 reference across all
// four transpose combinations, edge tile geometries (m%MR != 0, n%NR != 0),
// multi-panel k (k > kcBlock) and multi-chunk n (n > ncBlock). The packed
// kernel reassociates float additions, so comparison is relative at 1e-4 —
// the acceptance bound of the PR.
func TestGemmPackedMatchesNaive(t *testing.T) {
	rng := NewRNG(3)
	cases := []struct {
		ta, tb      bool
		m, n, k     int
		alpha, beta float32
	}{
		{false, false, 12, 4096, 72, 1, 0},   // DroNet conv2-like
		{false, false, 13, 1031, 67, 1, 0},   // every edge case at once
		{false, false, 64, 640, 300, 2, 0.5}, // k > kcBlock
		{false, false, 4, 2112, 16, 1, 1},    // n > ncBlock, beta=1
		{true, false, 33, 129, 40, 1, 0},     // transposed A
		{false, true, 21, 80, 64, -1, 0},     // transposed B
		{true, true, 40, 64, 33, 0.5, 2},     // both transposed
		{false, false, 1, 65536, 9, 1, 0},    // single row strip, huge n
		{false, false, 257, 24, 520, 1.5, 0}, // many strips, small n
	}
	for _, tc := range cases {
		if int64(tc.m)*int64(tc.n)*int64(tc.k) < packThreshold {
			t.Fatalf("case %+v below packThreshold; it would not exercise the packed driver", tc)
		}
		var lda, ldb int
		if tc.ta {
			lda = tc.m
		} else {
			lda = tc.k
		}
		if tc.tb {
			ldb = tc.k
		} else {
			ldb = tc.n
		}
		a := make([]float32, tc.m*tc.k)
		b := make([]float32, tc.k*tc.n)
		rng.FillUniform(a, -1, 1)
		rng.FillUniform(b, -1, 1)
		c1 := make([]float32, tc.m*tc.n)
		c2 := make([]float32, tc.m*tc.n)
		rng.FillUniform(c1, -1, 1)
		copy(c2, c1)
		Gemm(tc.ta, tc.tb, tc.m, tc.n, tc.k, tc.alpha, a, lda, b, ldb, tc.beta, c1, tc.n)
		naiveGemmRef(tc.ta, tc.tb, tc.m, tc.n, tc.k, tc.alpha, a, lda, b, ldb, tc.beta, c2, tc.n)
		for i := range c1 {
			if !relClose(float64(c1[i]), float64(c2[i]), 1e-4) {
				t.Fatalf("case %+v: c[%d] = %v, want %v", tc, i, c1[i], c2[i])
			}
		}
	}
}

// TestGemmInt8PackedMatchesNaive pins the packed int8 driver to the naive
// loop bit for bit: integer accumulation is associative, so no blocking,
// padding, or kernel choice may change a single ulp.
func TestGemmInt8PackedMatchesNaive(t *testing.T) {
	rng := NewRNG(17)
	for _, sz := range []struct{ m, n, k int }{
		{12, 4096, 72},  // full tiles and edge strips
		{13, 1031, 67},  // odd everything (odd k exercises pair padding)
		{1, 65536, 9},   // single partial strip, n > one chunk
		{64, 129, 4608}, // deep k, odd columns
	} {
		a := make([]int8, sz.m*sz.k)
		b := make([]int8, sz.k*sz.n)
		fa := make([]float32, len(a))
		fb := make([]float32, len(b))
		rng.FillUniform(fa, -1, 1)
		rng.FillUniform(fb, -1, 1)
		for i, v := range fa {
			a[i] = int8(v * 127)
		}
		for i, v := range fb {
			b[i] = int8(v * 127)
		}
		requant := make([]float32, sz.m)
		bias := make([]float32, sz.m)
		for i := range requant {
			requant[i] = 0.001 * float32(i+1)
			bias[i] = float32(i%5) - 2
		}
		got := make([]float32, sz.m*sz.n)
		want := make([]float32, sz.m*sz.n)
		GemmInt8(sz.m, sz.n, sz.k, a, sz.k, b, sz.n, requant, bias, got, sz.n)
		gemmInt8Naive(sz.m, sz.n, sz.k, a, sz.k, b, sz.n, requant, bias, want, sz.n)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("m%d n%d k%d: C[%d] = %v, want %v (int8 must be exact)", sz.m, sz.n, sz.k, i, got[i], want[i])
			}
		}
	}
}

// refKernF32 is a tile-shape-generic fp32 reference: per output element,
// ascending-p accumulation with unfused multiply-then-add — the order of the
// portable kernels. FMA families (AVX2) differ from it only by contraction
// rounding.
func refKernF32(mr, nr, kc int, pa, pb, c []float32, ldc int) {
	acc := make([]float32, mr*nr)
	for p := 0; p < kc; p++ {
		for r := 0; r < mr; r++ {
			av := pa[p*mr+r]
			for j := 0; j < nr; j++ {
				acc[r*nr+j] += av * pb[p*nr+j]
			}
		}
	}
	for r := 0; r < mr; r++ {
		for j := 0; j < nr; j++ {
			c[r*ldc+j] += acc[r*nr+j]
		}
	}
}

// refKernI8 is the tile-shape-generic int8 reference: pairwise int32
// accumulation and an unfused requantizing store, then the slope on a set
// sign bit — every kernel family must match it bit for bit.
func refKernI8(mr, nr, kPairs int, pa, pb []int16, rq, bs []float32, slope float32, c []float32, ldc int) {
	acc := make([]int32, mr*nr)
	for t := 0; t < kPairs; t++ {
		for r := 0; r < mr; r++ {
			a0, a1 := int32(pa[t*2*mr+2*r]), int32(pa[t*2*mr+2*r+1])
			for j := 0; j < nr; j++ {
				acc[r*nr+j] += a0*int32(pb[t*2*nr+2*j]) + a1*int32(pb[t*2*nr+2*j+1])
			}
		}
	}
	for r := 0; r < mr; r++ {
		for j := 0; j < nr; j++ {
			v := float32(float32(acc[r*nr+j])*rq[r]) + bs[r]
			if math.Signbit(float64(v)) {
				v *= slope
			}
			c[r*ldc+j] = v
		}
	}
}

// TestMicrokernelAsmMatchesGo cross-checks every registered microkernel
// family against the shape-generic references on random packed panels:
// bit-exact for int8 on every family, with and without the leaky slope and,
// where the family has one, for the in-place int8 kernel at every row
// count; bit-exact for fp32 on the unfused portable family, and within FMA
// contraction rounding for AVX2. A family's f32Rank1 must equal rank1Go bit
// for bit (checkRank1); its finishing direct kernel is held to its direct
// kernel and epilogue by TestDirectKernelMatchesPacked, over every row
// count and panel grouping.
func TestMicrokernelAsmMatchesGo(t *testing.T) {
	kernelOnce.Do(initKernelList)
	rng := NewRNG(5)
	for _, kern := range kernelList {
		if kern.f32Rank1 != nil {
			checkRank1(t, kern, rng)
		}
		mr, nr := kern.mr, kern.nr
		f32Tol := 0.0
		if kern.name == "avx2" {
			f32Tol = 1e-5 // FMA contraction over up to 333 k-steps
		}
		for _, kc := range []int{1, 2, 7, 64, 333} {
			pa := make([]float32, mr*kc)
			pb := make([]float32, nr*kc)
			rng.FillUniform(pa, -1, 1)
			rng.FillUniform(pb, -1, 1)
			c1 := make([]float32, mr*nr)
			c2 := make([]float32, mr*nr)
			rng.FillUniform(c1, -1, 1)
			copy(c2, c1)
			kern.f32(kc, pa, pb, c1, nr)
			refKernF32(mr, nr, kc, pa, pb, c2, nr)
			for i := range c1 {
				if !relClose(float64(c1[i]), float64(c2[i]), f32Tol) {
					t.Fatalf("%s kernF32 kc=%d: c[%d] = %v, reference %v", kern.name, kc, i, c1[i], c2[i])
				}
			}

			pa16 := make([]int16, mr*2*kc)
			pb16 := make([]int16, nr*2*kc)
			for i := range pa16 {
				pa16[i] = int16(rng.Intn(255) - 127)
			}
			for i := range pb16 {
				pb16[i] = int16(rng.Intn(255) - 127)
			}
			rq := make([]float32, mr)
			bs := make([]float32, mr)
			for r := 0; r < mr; r++ {
				rq[r] = 0.001 * float32(r+1)
				bs[r] = float32(r%3) - 1
			}
			// The direct kernel's B: each k-pair's 2·nr int16s at an
			// ascending offset of a larger buffer, gaps filled with noise.
			offs := make([]int, kc)
			origin := make([]int16, kc*(2*nr+3)+5)
			for i := range origin {
				origin[i] = int16(rng.Intn(255) - 127)
			}
			for p := range offs {
				offs[p] = 5 + p*(2*nr+3)
				copy(origin[offs[p]:], pb16[p*2*nr:(p+1)*2*nr])
			}
			for _, slope := range []float32{1, LeakySlope} {
				q1 := make([]float32, mr*nr)
				q2 := make([]float32, mr*nr)
				kern.i8(kc, pa16, pb16, rq, bs, slope, q1, nr)
				refKernI8(mr, nr, kc, pa16, pb16, rq, bs, slope, q2, nr)
				for i := range q1 {
					if math.Float32bits(q1[i]) != math.Float32bits(q2[i]) {
						t.Fatalf("%s kernI8 kPairs=%d slope=%v: c[%d] = %v, reference %v (must be exact)", kern.name, kc, slope, i, q1[i], q2[i])
					}
				}
				if kern.i8Direct == nil {
					continue
				}
				for rows := 1; rows <= mr; rows++ {
					q3 := make([]float32, mr*nr)
					kern.i8Direct(kc, pa16, origin, offs, rq, bs, slope, q3, nr, rows)
					for i := range q3 {
						want := q2[i]
						if i >= rows*nr {
							want = 0 // rows past the requested ones stay untouched
						}
						if math.Float32bits(q3[i]) != math.Float32bits(want) {
							t.Fatalf("%s i8Direct kPairs=%d slope=%v rows=%d: c[%d] = %v, want %v", kern.name, kc, slope, rows, i, q3[i], want)
						}
					}
				}
			}
		}
	}
}

// checkRank1 holds kern.f32Rank1 to rank1Go by float bits: row lengths
// 0–17 and a few longer ones, whole multiples of eight and not, against up
// to nine filters at a C stride past the row, with ±0 weights (skipped), a
// NaN weight, and rows and C holding −0, ±Inf and NaNs of either sign and
// other payloads, where the operand order of the multiply and the add
// decides which NaN comes out.
func checkRank1(t *testing.T, kern *microKernels, rng *RNG) {
	t.Helper()
	nan := func(bits uint32) float32 { return math.Float32frombits(bits) }
	specials := []float32{float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		nan(0x7fc00000), nan(0xffc00000), nan(0x7fc00123), nan(0xffe00042), 1e-39}
	plant := func(v []float32) {
		for i := range v {
			if rng.Intn(6) == 0 {
				v[i] = specials[rng.Intn(len(specials))]
			}
		}
	}
	lens := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 36, 46, 64, 71, 576}
	for _, n := range lens {
		for _, m := range []int{0, 1, 2, 5, 9} {
			ldc := n + 3
			w := make([]float32, m)
			rng.FillUniform(w, -1, 1)
			for i := range w {
				switch rng.Intn(5) {
				case 0:
					w[i] = 0
				case 1:
					w[i] = float32(math.Copysign(0, -1))
				case 2:
					w[i] = specials[rng.Intn(len(specials))]
				}
			}
			row := make([]float32, n)
			rng.FillUniform(row, -2, 2)
			plant(row)
			want := make([]float32, m*ldc+5)
			rng.FillUniform(want, -2, 2)
			plant(want)
			got := append([]float32(nil), want...)
			rank1Go(w, row, want, ldc)
			kern.f32Rank1(w, row, got, ldc)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s f32Rank1 n=%d m=%d: c[%d] = %v (%#x), rank1Go %v (%#x)", kern.name, n, m,
						i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
				}
			}
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s f32Rank1 wrote past the end of C without a panic", kern.name)
			}
		}()
		kern.f32Rank1([]float32{1, 1}, make([]float32, 9), make([]float32, 2*9-1), 9)
	}()
}

// TestGemmPackedDeterministicAcrossWorkers pins worker-count independence:
// the tile decomposition is fixed by the problem shape, so running the same
// packed GEMM at GOMAXPROCS 1 and 8 must give bit-identical float32 output
// (and exercises the parallel pool under -race).
func TestGemmPackedDeterministicAcrossWorkers(t *testing.T) {
	const m, n, k = 37, 1500, 130
	rng := NewRNG(23)
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	rng.FillUniform(a, -1, 1)
	rng.FillUniform(b, -1, 1)

	run := func() []float32 {
		c := make([]float32, m*n)
		Gemm(false, false, m, n, k, 1, a, k, b, n, 0, c, n)
		return c
	}
	prev := runtime.GOMAXPROCS(1)
	serial := run()
	runtime.GOMAXPROCS(8)
	parallel := run()
	qa := make([]int8, m*k)
	qb := make([]int8, k*n)
	for i, v := range a {
		qa[i] = int8(v * 127)
	}
	for i, v := range b {
		qb[i] = int8(v * 127)
	}
	rq := make([]float32, m)
	bias := make([]float32, m)
	for i := range rq {
		rq[i] = 0.01
	}
	qc1 := make([]float32, m*n)
	qc2 := make([]float32, m*n)
	GemmInt8(m, n, k, qa, k, qb, n, rq, bias, qc1, n)
	runtime.GOMAXPROCS(1)
	GemmInt8(m, n, k, qa, k, qb, n, rq, bias, qc2, n)
	runtime.GOMAXPROCS(prev)

	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("fp32 c[%d]: serial %v != parallel %v — worker count changed results", i, serial[i], parallel[i])
		}
	}
	for i := range qc1 {
		if qc1[i] != qc2[i] {
			t.Fatalf("int8 c[%d]: parallel %v != serial %v — worker count changed results", i, qc1[i], qc2[i])
		}
	}
}

// FuzzGemmPackedVsNaive cross-checks the packed fp32 and int8 drivers —
// through EVERY registered microkernel family, on-the-fly and pre-packed —
// against the naive loops on fuzzer-chosen shapes: exact for int8 (and
// bit-identical across families), ≤1e-4 relative for fp32 (reassociation
// only). The drivers are invoked directly so sub-threshold shapes still
// exercise the packed machinery.
func FuzzGemmPackedVsNaive(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint8(65), uint8(72))
	f.Add(uint64(7), uint8(1), uint8(255), uint8(9))
	f.Add(uint64(42), uint8(33), uint8(40), uint8(255))
	f.Fuzz(func(t *testing.T, seed uint64, mm, nn, kk uint8) {
		m := int(mm)%64 + 1
		n := int(nn)*8 + 1 // up to 2041: crosses panel and chunk edges
		k := int(kk) + 1
		rng := NewRNG(seed)
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		rng.FillUniform(a, -1, 1)
		rng.FillUniform(b, -1, 1)

		qa := make([]int8, m*k)
		qb := make([]int8, k*n)
		for i, v := range a {
			qa[i] = int8(v * 127)
		}
		for i, v := range b {
			qb[i] = int8(v * 127)
		}
		rq := make([]float32, m)
		bias := make([]float32, m)
		for i := range rq {
			rq[i] = 0.001 * float32(i+1)
			bias[i] = float32(i%3) - 1
		}

		c2 := make([]float32, m*n)
		naiveGemmRef(false, false, m, n, k, 1, a, k, b, n, 0, c2, n)
		q2 := make([]float32, m*n)
		gemmInt8Naive(m, n, k, qa, k, qb, n, rq, bias, q2, n)

		kernelOnce.Do(initKernelList)
		for _, kern := range kernelList {
			c1 := make([]float32, m*n)
			gemmPacked(kern, false, false, m, n, k, 1, a, k, b, n, c1, n, nil)
			for i := range c1 {
				if !relClose(float64(c1[i]), float64(c2[i]), 1e-4) {
					t.Fatalf("%s fp32 m%d n%d k%d: c[%d] = %v, want %v", kern.name, m, n, k, i, c1[i], c2[i])
				}
			}

			q1 := make([]float32, m*n)
			gemmInt8Packed(kern, m, n, k, qa, k, qb, n, rq, bias, q1, n, nil)
			for i := range q1 {
				if q1[i] != q2[i] {
					t.Fatalf("%s int8 m%d n%d k%d: c[%d] = %v, want %v (must be exact)", kern.name, m, n, k, i, q1[i], q2[i])
				}
			}
		}
	})
}

// TestGemmAllKernelsMatchNaive runs the full public Gemm/GemmInt8 entry
// points under each dispatch selection (SelectKernel) on an
// above-threshold edge-heavy shape, so the whole driver — blocking,
// parametric packing, edge tiles — is validated per family, not just the
// microkernels. int8 output must additionally be bit-identical across
// families.
func TestGemmAllKernelsMatchNaive(t *testing.T) {
	defer func() {
		if err := SelectKernel(""); err != nil {
			t.Fatal(err)
		}
	}()
	const m, n, k = 13, 1031, 67
	rng := NewRNG(29)
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	rng.FillUniform(a, -1, 1)
	rng.FillUniform(b, -1, 1)
	qa := make([]int8, m*k)
	qb := make([]int8, k*n)
	for i, v := range a {
		qa[i] = int8(v * 127)
	}
	for i, v := range b {
		qb[i] = int8(v * 127)
	}
	rq := make([]float32, m)
	bias := make([]float32, m)
	for i := range rq {
		rq[i] = 0.001 * float32(i+1)
		bias[i] = float32(i%3) - 1
	}
	want := make([]float32, m*n)
	naiveGemmRef(false, false, m, n, k, 1, a, k, b, n, 0, want, n)
	qWant := make([]float32, m*n)
	gemmInt8Naive(m, n, k, qa, k, qb, n, rq, bias, qWant, n)

	for _, name := range AvailableKernels() {
		if err := SelectKernel(name); err != nil {
			t.Fatal(err)
		}
		if got := KernelName(); got != name {
			t.Fatalf("SelectKernel(%q) left KernelName %q", name, got)
		}
		c := make([]float32, m*n)
		Gemm(false, false, m, n, k, 1, a, k, b, n, 0, c, n)
		for i := range c {
			if !relClose(float64(c[i]), float64(want[i]), 1e-4) {
				t.Fatalf("%s: fp32 c[%d] = %v, want %v", name, i, c[i], want[i])
			}
		}
		q := make([]float32, m*n)
		GemmInt8(m, n, k, qa, k, qb, n, rq, bias, q, n)
		for i := range q {
			if q[i] != qWant[i] {
				t.Fatalf("%s: int8 c[%d] = %v, want %v (must be bit-identical across every family)", name, i, q[i], qWant[i])
			}
		}
	}

	if err := SelectKernel("no-such-kernel"); err == nil {
		t.Fatal("SelectKernel accepted an unknown family")
	}
}

// TestGemmPrepackedMatchesPacked pins the pre-packed entry points to the
// on-the-fly drivers bit for bit, per family and at different worker counts:
// the pre-pack holds exactly the values the per-call pack would produce, so
// skipping the pack stage must not move a single ulp. Also exercises the
// family-mismatch fallback (pack under one family, run under another).
func TestGemmPrepackedMatchesPacked(t *testing.T) {
	defer func() {
		if err := SelectKernel(""); err != nil {
			t.Fatal(err)
		}
	}()
	rng := NewRNG(31)
	for _, sz := range []struct{ m, n, k int }{
		{12, 4096, 72}, // DroNet conv shape: full tiles + edge strips
		{13, 1031, 67}, // odd everything
		{64, 640, 300}, // k > kcBlock: exercises the panel-offset windowing
		{6, 40, 16},    // below packThreshold: fallback path
	} {
		a := make([]float32, sz.m*sz.k)
		b := make([]float32, sz.k*sz.n)
		rng.FillUniform(a, -1, 1)
		rng.FillUniform(b, -1, 1)
		qa := make([]int8, sz.m*sz.k)
		qb := make([]int8, sz.k*sz.n)
		for i, v := range a {
			qa[i] = int8(v * 127)
		}
		for i, v := range b {
			qb[i] = int8(v * 127)
		}
		rq := make([]float32, sz.m)
		bias := make([]float32, sz.m)
		for i := range rq {
			rq[i] = 0.001 * float32(i+1)
			bias[i] = float32(i%5) - 2
		}

		for _, name := range AvailableKernels() {
			if err := SelectKernel(name); err != nil {
				t.Fatal(err)
			}
			want := make([]float32, sz.m*sz.n)
			Gemm(false, false, sz.m, sz.n, sz.k, 1, a, sz.k, b, sz.n, 0, want, sz.n)
			qWant := make([]float32, sz.m*sz.n)
			GemmInt8(sz.m, sz.n, sz.k, qa, sz.k, qb, sz.n, rq, bias, qWant, sz.n)

			pre := PackA(false, sz.m, sz.k, 1, a, sz.k)
			preI8 := PackAInt8(sz.m, sz.k, qa, sz.k)
			for _, procs := range []int{1, 8} {
				prev := runtime.GOMAXPROCS(procs)
				got := make([]float32, sz.m*sz.n)
				GemmPrepacked(pre, false, sz.n, b, sz.n, 0, got, sz.n)
				qGot := make([]float32, sz.m*sz.n)
				GemmInt8Prepacked(preI8, sz.n, qb, sz.n, rq, bias, qGot, sz.n)
				runtime.GOMAXPROCS(prev)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s m%d n%d k%d procs=%d: prepacked fp32 c[%d] = %v, on-the-fly %v (must be bit-identical)",
							name, sz.m, sz.n, sz.k, procs, i, got[i], want[i])
					}
					if qGot[i] != qWant[i] {
						t.Fatalf("%s m%d n%d k%d procs=%d: prepacked int8 c[%d] = %v, on-the-fly %v (must be bit-identical)",
							name, sz.m, sz.n, sz.k, procs, i, qGot[i], qWant[i])
					}
				}
			}
		}

		// Family-mismatch fallback: a pack made under one family must stay
		// correct (vs the naive oracle) when dispatch has moved on.
		names := AvailableKernels()
		if len(names) > 1 {
			if err := SelectKernel(names[0]); err != nil {
				t.Fatal(err)
			}
			pre := PackA(false, sz.m, sz.k, 1, a, sz.k)
			preI8 := PackAInt8(sz.m, sz.k, qa, sz.k)
			if err := SelectKernel(names[len(names)-1]); err != nil {
				t.Fatal(err)
			}
			ref := make([]float32, sz.m*sz.n)
			naiveGemmRef(false, false, sz.m, sz.n, sz.k, 1, a, sz.k, b, sz.n, 0, ref, sz.n)
			got := make([]float32, sz.m*sz.n)
			GemmPrepacked(pre, false, sz.n, b, sz.n, 0, got, sz.n)
			for i := range got {
				if !relClose(float64(got[i]), float64(ref[i]), 1e-4) {
					t.Fatalf("mismatch fallback fp32 c[%d] = %v, want %v", i, got[i], ref[i])
				}
			}
			qRef := make([]float32, sz.m*sz.n)
			gemmInt8Naive(sz.m, sz.n, sz.k, qa, sz.k, qb, sz.n, rq, bias, qRef, sz.n)
			qGot := make([]float32, sz.m*sz.n)
			GemmInt8Prepacked(preI8, sz.n, qb, sz.n, rq, bias, qGot, sz.n)
			for i := range qGot {
				if qGot[i] != qRef[i] {
					t.Fatalf("mismatch fallback int8 c[%d] = %v, want %v (must be exact)", i, qGot[i], qRef[i])
				}
			}
		}
	}
}

// TestGemmZeroAlloc proves the packed drivers are allocation-free at steady
// state: after one warm-up call (pool priming, pack-slab growth), repeated
// fp32 and int8 GEMMs and implicit-GEMM convolutions at a fixed shape must
// not allocate.
func TestGemmZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops items at random; steady-state pooling is unobservable")
	}
	const m, n, k = 12, 4096, 72
	rng := NewRNG(9)
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	c := make([]float32, m*n)
	rng.FillUniform(a, -1, 1)
	rng.FillUniform(b, -1, 1)
	qa := make([]int8, m*k)
	qb := make([]int8, k*n)
	for i, v := range a {
		qa[i] = int8(v * 127)
	}
	for i, v := range b {
		qb[i] = int8(v * 127)
	}
	rq := make([]float32, m)
	bias := make([]float32, m)

	if allocs := testing.AllocsPerRun(10, func() {
		Gemm(false, false, m, n, k, 1, a, k, b, n, 0, c, n)
	}); allocs > 0 {
		t.Errorf("fp32 Gemm allocates %.1f objects per call at steady state, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		GemmInt8(m, n, k, qa, k, qb, n, rq, bias, c, n)
	}); allocs > 0 {
		t.Errorf("GemmInt8 allocates %.1f objects per call at steady state, want 0", allocs)
	}

	pre := PackA(false, m, k, 1, a, k)
	if allocs := testing.AllocsPerRun(10, func() {
		GemmPrepacked(pre, false, n, b, n, 0, c, n)
	}); allocs > 0 {
		t.Errorf("GemmPrepacked allocates %.1f objects per call at steady state, want 0", allocs)
	}
	preI8 := PackAInt8(m, k, qa, k)
	if allocs := testing.AllocsPerRun(10, func() {
		GemmInt8Prepacked(preI8, n, qb, n, rq, bias, c, n)
	}); allocs > 0 {
		t.Errorf("GemmInt8Prepacked allocates %.1f objects per call at steady state, want 0", allocs)
	}

	// The same A as 12 filters over 8 channels of 3×3 taps: a 64×64 map is
	// n = 4096 on the blocked driver, a 4×4 map runs the sub-threshold loops.
	ep := Epilogue{Mean: bias, Scale: rq, InvStd: rq, Bias: bias, Leaky: true}
	for _, side := range []int{64, 4} {
		g := ConvGeom{C: 8, H: side, W: side, Ksize: 3, Stride: 1, Pad: 1}
		if allocs := testing.AllocsPerRun(10, func() {
			ConvPrepacked(pre, g, b, ep, c)
		}); allocs > 0 {
			t.Errorf("ConvPrepacked on a %dx%d map allocates %.1f objects per call at steady state, want 0", side, side, allocs)
		}
	}
}

// BenchmarkGemmPackedShapes complements BenchmarkGemm with the conv shapes
// at the serving input size, so `make profile` captures a representative
// kernel mix.
func BenchmarkGemmPackedShapes(b *testing.B) {
	for _, sz := range []struct{ m, n, k int }{
		{12, 16384, 27},
		{24, 4096, 108},
	} {
		b.Run(fmt.Sprintf("m%d_n%d_k%d", sz.m, sz.n, sz.k), func(b *testing.B) {
			rng := NewRNG(1)
			a := make([]float32, sz.m*sz.k)
			bm := make([]float32, sz.k*sz.n)
			c := make([]float32, sz.m*sz.n)
			rng.FillUniform(a, -1, 1)
			rng.FillUniform(bm, -1, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Gemm(false, false, sz.m, sz.n, sz.k, 1, a, sz.k, bm, sz.n, 0, c, sz.n)
			}
			flops := 2 * float64(sz.m) * float64(sz.n) * float64(sz.k)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
