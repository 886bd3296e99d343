package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	tt := New(2, 3, 4, 5)
	if tt.Len() != 120 {
		t.Fatalf("Len = %d, want 120", tt.Len())
	}
	n, c, h, w := tt.Shape()
	if n != 2 || c != 3 || h != 4 || w != 5 {
		t.Fatalf("Shape = %d %d %d %d", n, c, h, w)
	}
	for _, v := range tt.Data {
		if v != 0 {
			t.Fatal("New tensor not zeroed")
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero dimension")
		}
	}()
	New(1, 0, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	tt := New(2, 3, 4, 5)
	tt.Set(1, 2, 3, 4, 42)
	if got := tt.At(1, 2, 3, 4); got != 42 {
		t.Fatalf("At = %v, want 42", got)
	}
	// NCHW layout: last element of the buffer.
	if tt.Data[len(tt.Data)-1] != 42 {
		t.Fatal("Set did not write the expected NCHW offset")
	}
}

func TestIndexMatchesAt(t *testing.T) {
	tt := New(2, 2, 3, 3)
	for i := range tt.Data {
		tt.Data[i] = float32(i)
	}
	for n := 0; n < 2; n++ {
		for c := 0; c < 2; c++ {
			for h := 0; h < 3; h++ {
				for w := 0; w < 3; w++ {
					if tt.At(n, c, h, w) != tt.Data[tt.Index(n, c, h, w)] {
						t.Fatalf("Index disagrees with At at (%d,%d,%d,%d)", n, c, h, w)
					}
				}
			}
		}
	}
}

func TestBatchView(t *testing.T) {
	tt := New(3, 2, 2, 2)
	for i := range tt.Data {
		tt.Data[i] = float32(i)
	}
	b := tt.Batch(1)
	if b.N != 1 || b.C != 2 || b.H != 2 || b.W != 2 {
		t.Fatalf("Batch shape = %v", b)
	}
	if b.Data[0] != 8 {
		t.Fatalf("Batch(1) first element = %v, want 8", b.Data[0])
	}
	b.Data[0] = -1
	if tt.Data[8] != -1 {
		t.Fatal("Batch must be a view, not a copy")
	}
}

func TestFromSlice(t *testing.T) {
	if _, err := FromSlice(1, 1, 2, 2, make([]float32, 3)); err == nil {
		t.Fatal("expected error for wrong length")
	}
	d := []float32{1, 2, 3, 4}
	tt, err := FromSlice(1, 1, 2, 2, d)
	if err != nil {
		t.Fatal(err)
	}
	d[0] = 9
	if tt.Data[0] != 9 {
		t.Fatal("FromSlice must wrap, not copy")
	}
}

func TestReshape(t *testing.T) {
	tt := New(1, 2, 3, 4)
	r, err := tt.Reshape(1, 1, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if r.H != 4 || r.W != 6 {
		t.Fatalf("Reshape shape = %v", r)
	}
	if _, err := tt.Reshape(1, 1, 5, 5); err == nil {
		t.Fatal("expected error for size change")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := New(1, 1, 2, 2)
	a.Fill(3)
	b := a.Clone()
	b.Data[0] = 7
	if a.Data[0] != 3 {
		t.Fatal("Clone shares storage")
	}
}

func TestAddScaledAndScale(t *testing.T) {
	a := New(1, 1, 1, 4)
	b := New(1, 1, 1, 4)
	a.Fill(1)
	b.Fill(2)
	a.AddScaled(0.5, b)
	for _, v := range a.Data {
		if v != 2 {
			t.Fatalf("AddScaled got %v, want 2", v)
		}
	}
	a.Scale(-2)
	if a.Data[0] != -4 {
		t.Fatalf("Scale got %v, want -4", a.Data[0])
	}
}

func TestSumMeanNorms(t *testing.T) {
	a := New(1, 1, 1, 4)
	copy(a.Data, []float32{1, -2, 3, -4})
	if a.Sum() != -2 {
		t.Fatalf("Sum = %v", a.Sum())
	}
	if a.Mean() != -0.5 {
		t.Fatalf("Mean = %v", a.Mean())
	}
	if a.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v", a.MaxAbs())
	}
	want := math.Sqrt(1 + 4 + 9 + 16)
	if math.Abs(a.L2Norm()-want) > 1e-9 {
		t.Fatalf("L2Norm = %v, want %v", a.L2Norm(), want)
	}
}

// naiveGemm is an independent O(mnk) reference used to validate the blocked
// kernels over all four transpose combinations.
func naiveGemm(ta, tb bool, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	at := func(i, p int) float32 {
		if ta {
			return a[p*lda+i]
		}
		return a[i*lda+p]
	}
	bt := func(p, j int) float32 {
		if tb {
			return b[j*ldb+p]
		}
		return b[p*ldb+j]
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var sum float32
			for p := 0; p < k; p++ {
				sum += at(i, p) * bt(p, j)
			}
			c[i*ldc+j] = alpha*sum + beta*c[i*ldc+j]
		}
	}
}

func TestGemmAgainstNaive(t *testing.T) {
	rng := NewRNG(7)
	cases := []struct {
		ta, tb      bool
		m, n, k     int
		alpha, beta float32
	}{
		{false, false, 3, 4, 5, 1, 0},
		{false, false, 8, 8, 8, 2, 1},
		{true, false, 5, 7, 3, 1, 0.5},
		{false, true, 6, 2, 9, -1, 0},
		{true, true, 4, 4, 4, 0.5, 2},
		{false, false, 1, 17, 200, 1, 0}, // exercises K-blocking
	}
	for _, tc := range cases {
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
		naiveGemm(tc.ta, tc.tb, tc.m, tc.n, tc.k, tc.alpha, a, lda, b, ldb, tc.beta, c2, tc.n)
		for i := range c1 {
			if math.Abs(float64(c1[i]-c2[i])) > 1e-3 {
				t.Fatalf("case %+v: c[%d] = %v, want %v", tc, i, c1[i], c2[i])
			}
		}
	}
}

func TestGemmAlphaZeroLeavesScaledC(t *testing.T) {
	c := []float32{1, 2, 3, 4}
	a := []float32{1, 1, 1, 1}
	Gemm(false, false, 2, 2, 2, 0, a, 2, a, 2, 0.5, c, 2)
	want := []float32{0.5, 1, 1.5, 2}
	for i := range c {
		if c[i] != want[i] {
			t.Fatalf("c = %v, want %v", c, want)
		}
	}
}

func TestIm2colIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1, no pad: im2col is the identity.
	img := []float32{1, 2, 3, 4}
	col := make([]float32, 4)
	Im2col(img, 1, 2, 2, 1, 1, 0, col)
	for i := range img {
		if col[i] != img[i] {
			t.Fatalf("col = %v, want %v", col, img)
		}
	}
}

func TestIm2colKnownPattern(t *testing.T) {
	// 3x3 input, 2x2 kernel, stride 1, no pad → 2x2 output, 4 rows.
	img := []float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}
	col := make([]float32, 4*4)
	Im2col(img, 1, 3, 3, 2, 1, 0, col)
	want := []float32{
		1, 2, 4, 5, // kernel offset (0,0)
		2, 3, 5, 6, // (0,1)
		4, 5, 7, 8, // (1,0)
		5, 6, 8, 9, // (1,1)
	}
	for i := range want {
		if col[i] != want[i] {
			t.Fatalf("col[%d] = %v, want %v\ncol=%v", i, col[i], want[i], col)
		}
	}
}

func TestIm2colPaddingZeros(t *testing.T) {
	img := []float32{5}
	// 1x1 input, 3x3 kernel, pad 1 → single output column; only center is 5.
	col := make([]float32, 9)
	Im2col(img, 1, 1, 1, 3, 1, 1, col)
	for i, v := range col {
		if i == 4 {
			if v != 5 {
				t.Fatalf("center = %v, want 5", v)
			}
		} else if v != 0 {
			t.Fatalf("col[%d] = %v, want 0 (padding)", i, v)
		}
	}
}

// TestCol2imAdjoint verifies <im2col(x), y> == <x, col2im(y)>, the defining
// property of adjoint linear maps, on random tensors.
func TestCol2imAdjoint(t *testing.T) {
	rng := NewRNG(11)
	for trial := 0; trial < 20; trial++ {
		ch := 1 + rng.Intn(3)
		h := 3 + rng.Intn(5)
		w := 3 + rng.Intn(5)
		k := 1 + rng.Intn(3)
		stride := 1 + rng.Intn(2)
		pad := rng.Intn(2)
		outH := ConvOutSize(h, k, stride, pad)
		outW := ConvOutSize(w, k, stride, pad)
		if outH <= 0 || outW <= 0 {
			continue
		}
		colLen := ch * k * k * outH * outW
		x := make([]float32, ch*h*w)
		y := make([]float32, colLen)
		rng.FillUniform(x, -1, 1)
		rng.FillUniform(y, -1, 1)

		cx := make([]float32, colLen)
		Im2col(x, ch, h, w, k, stride, pad, cx)
		var lhs float64
		for i := range cx {
			lhs += float64(cx[i]) * float64(y[i])
		}
		iy := make([]float32, ch*h*w)
		Col2im(y, ch, h, w, k, stride, pad, iy)
		var rhs float64
		for i := range iy {
			rhs += float64(x[i]) * float64(iy[i])
		}
		if math.Abs(lhs-rhs) > 1e-2*(1+math.Abs(lhs)) {
			t.Fatalf("adjoint mismatch: %v vs %v (ch=%d h=%d w=%d k=%d s=%d p=%d)", lhs, rhs, ch, h, w, k, stride, pad)
		}
	}
}

func TestConvOutSize(t *testing.T) {
	cases := []struct{ in, k, s, p, want int }{
		{416, 3, 1, 1, 416},
		{416, 2, 2, 0, 208},
		{13, 2, 1, 0, 12}, // darknet's stride-1 maxpool shrinks without pad
		{512, 3, 2, 1, 256},
	}
	for _, tc := range cases {
		if got := ConvOutSize(tc.in, tc.k, tc.s, tc.p); got != tc.want {
			t.Errorf("ConvOutSize(%d,%d,%d,%d) = %d, want %d", tc.in, tc.k, tc.s, tc.p, got, tc.want)
		}
	}
}

func TestSigmoidProperties(t *testing.T) {
	if s := Sigmoid(0); math.Abs(float64(s)-0.5) > 1e-6 {
		t.Fatalf("Sigmoid(0) = %v", s)
	}
	// Symmetry: σ(-x) = 1 - σ(x).
	for _, x := range []float32{0.5, 1, 3, 10} {
		if d := Sigmoid(-x) + Sigmoid(x) - 1; math.Abs(float64(d)) > 1e-6 {
			t.Fatalf("sigmoid symmetry violated at %v: %v", x, d)
		}
	}
}

func TestLeakyAndGrad(t *testing.T) {
	x := []float32{-2, -0.5, 0, 1, 3}
	Leaky(x)
	want := []float32{-0.2, -0.05, 0, 1, 3}
	for i := range want {
		if math.Abs(float64(x[i]-want[i])) > 1e-6 {
			t.Fatalf("Leaky = %v, want %v", x, want)
		}
	}
	g := []float32{1, 1, 1, 1, 1}
	LeakyGrad(x, g)
	wantG := []float32{0.1, 0.1, 1, 1, 1}
	for i := range wantG {
		if g[i] != wantG[i] {
			t.Fatalf("LeakyGrad = %v, want %v", g, wantG)
		}
	}
}

// TestLeakyMatchesBranchyForm holds the sign-indexed multiply to the textbook
// `if v < 0 { v *= slope }` bit for bit, zeros, infinities and NaNs included.
func TestLeakyMatchesBranchyForm(t *testing.T) {
	x := []float32{0, float32(math.Copysign(0, -1)), 1e-45, -1e-45, 3, -3, -0.1,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), -float32(math.NaN())}
	rng := NewRNG(12)
	for i := 0; i < 1000; i++ {
		x = append(x, float32(rng.Range(-4, 4)))
	}
	want := append([]float32(nil), x...)
	for i, v := range want {
		if v < 0 {
			want[i] = LeakySlope * v
		}
	}
	Leaky(x)
	for i := range want {
		if math.Float32bits(x[i]) != math.Float32bits(want[i]) {
			t.Fatalf("Leaky[%d] = %v (%#x), branchy form gives %v (%#x)", i, x[i], math.Float32bits(x[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	src := []float32{1000, 1001, 999} // would overflow a naive exp
	dst := make([]float32, 3)
	Softmax(src, dst)
	var sum float64
	for _, v := range dst {
		if v < 0 || v > 1 {
			t.Fatalf("softmax out of range: %v", dst)
		}
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Fatalf("softmax sum = %v", sum)
	}
	if !(dst[1] > dst[0] && dst[0] > dst[2]) {
		t.Fatalf("softmax ordering wrong: %v", dst)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce same stream")
		}
	}
	if NewRNG(0).Uint64() == 0 {
		t.Fatal("zero seed must be remapped")
	}
}

func TestRNGUniformRange(t *testing.T) {
	r := NewRNG(1)
	var sum float64
	const n = 10000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("uniform mean = %v, want ≈0.5", mean)
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(2)
	var sum, sq float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := r.Normal()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.05 || math.Abs(variance-1) > 0.1 {
		t.Fatalf("normal moments: mean=%v var=%v", mean, variance)
	}
}

// Property: AddScaled with alpha then -alpha restores the original tensor.
func TestAddScaledInverseProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed | 1)
		a := New(1, 1, 1, 16)
		b := New(1, 1, 1, 16)
		rng.FillUniform(a.Data, -10, 10)
		rng.FillUniform(b.Data, -10, 10)
		orig := a.Clone()
		alpha := float32(rng.Range(-2, 2))
		a.AddScaled(alpha, b)
		a.AddScaled(-alpha, b)
		for i := range a.Data {
			if math.Abs(float64(a.Data[i]-orig.Data[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Gemm is linear in alpha: Gemm(2α) == 2·Gemm(α) with beta=0.
func TestGemmLinearityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed | 1)
		m, n, k := 2+rng.Intn(5), 2+rng.Intn(5), 2+rng.Intn(5)
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		rng.FillUniform(a, -1, 1)
		rng.FillUniform(b, -1, 1)
		alpha := float32(rng.Range(0.1, 2))
		c1 := make([]float32, m*n)
		c2 := make([]float32, m*n)
		Gemm(false, false, m, n, k, alpha, a, k, b, n, 0, c1, n)
		Gemm(false, false, m, n, k, 2*alpha, a, k, b, n, 0, c2, n)
		for i := range c1 {
			if math.Abs(float64(2*c1[i]-c2[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
