package network_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cfg"
	"repro/internal/layers"
	"repro/internal/models"
	"repro/internal/network"
	"repro/internal/tensor"
)

// forEachKernel runs fn under every registered microkernel family, restoring
// the process selection afterwards.
func forEachKernel(t *testing.T, fn func(t *testing.T)) {
	t.Cleanup(func() {
		if err := tensor.SelectKernel(""); err != nil {
			t.Fatal(err)
		}
	})
	for _, name := range tensor.AvailableKernels() {
		if err := tensor.SelectKernel(name); err != nil {
			t.Fatal(err)
		}
		t.Run(name, fn)
	}
}

// layerChain is the oracle the compiled plan must equal bit for bit: every
// layer's Infer into its own fresh output, one layer after the other, with
// no step fused. It returns every layer's output.
func layerChain(net *network.Network, x *tensor.Tensor) []*tensor.Tensor {
	outs := make([]*tensor.Tensor, len(net.Layers))
	var a tensor.Arena
	for i, l := range net.Layers {
		s := l.OutShape()
		outs[i] = tensor.New(x.N, s.C, s.H, s.W)
		a.Reset()
		l.Infer(x, outs[i], &a)
		x = outs[i]
	}
	return outs
}

// images is the view of images [b0, b0+n) of x.
func images(x *tensor.Tensor, b0, n int) *tensor.Tensor {
	per := x.C * x.H * x.W
	return &tensor.Tensor{N: n, C: x.C, H: x.H, W: x.W, Data: x.Data[b0*per : (b0+n)*per]}
}

// randomizeConvs gives every conv random biases and rolling statistics, so
// no epilogue stage is an identity.
func randomizeConvs(net *network.Network, rng *tensor.RNG) {
	for _, l := range net.Layers {
		c, ok := l.(*layers.Conv2D)
		if !ok {
			continue
		}
		rng.FillUniform(c.Biases.W.Data, -0.5, 0.5)
		if c.BatchNorm {
			rng.FillUniform(c.Scales.W.Data, 0.5, 1.5)
			rng.FillUniform(c.RollingMean.Data, -0.3, 0.3)
			rng.FillUniform(c.RollingVar.Data, 0.2, 2)
		}
	}
}

// quarterScaleDroNet builds DroNet with a quarter of its filters at size²:
// the model the quarter-scale workloads serve.
func quarterScaleDroNet(t *testing.T, size int) *network.Network {
	t.Helper()
	text, err := models.Cfg(models.DroNet, size)
	if err != nil {
		t.Fatal(err)
	}
	if text, err = models.Scale(text, 0.25); err != nil {
		t.Fatal(err)
	}
	def, err := cfg.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	net, _, err := cfg.Build("dronet-x0.25", def, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// signedZeroFrames returns n frames of +0 and −0 in runs of five: every conv
// window sums signed zeros, and every pool window ties them.
func signedZeroFrames(n, c, h, w int) *tensor.Tensor {
	x := tensor.New(n, c, h, w)
	negZero := float32(math.Copysign(0, -1))
	for i := range x.Data {
		if i/5%2 == 1 {
			x.Data[i] = negZero
		}
	}
	return x
}

func assertSameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if got.N != want.N || got.C != want.C || got.H != want.H || got.W != want.W {
		t.Fatalf("%s: shape %dx%dx%dx%d, layer chain %dx%dx%dx%d", what, got.N, got.C, got.H, got.W, want.N, want.C, want.H, want.W)
	}
	for i, v := range want.Data {
		if g := got.Data[i]; math.Float32bits(g) != math.Float32bits(v) {
			t.Fatalf("%s: out[%d] = %v (%#x), layer chain %v (%#x)", what, i, g, math.Float32bits(g), v, math.Float32bits(v))
		}
	}
}

// TestFusedConvPoolMatchesLayers holds the compiled plan — each conv and
// the 2×2/2 pool after it as one step, a batch run in image groups — to the
// layer-by-layer Infer chain bit for bit, under every kernel family: every
// step output ForwardSteps reports equals the chain's output at the step's
// last layer, and the plan runs DroNet's five conv → pool pairs as two-layer
// steps. It covers DroNet at 256² (one image a group) and the quarter-scale
// model at 64² and 96² (the whole batch a group), batches 1, 3 and 8, on
// random frames, on the NaN, ±Inf and ±3e38 frames of
// TestForwardIgnoresStaleSlabs and on signed zeros — the windows the pool's
// fallback decides.
func TestFusedConvPoolMatchesLayers(t *testing.T) {
	nets := []struct {
		name string
		net  *network.Network
	}{
		{"dronet-256", buildDroNet256(t)},
		{"quarter-64", quarterScaleDroNet(t, 64)},
		{"quarter-96", quarterScaleDroNet(t, 96)},
	}
	for _, tc := range nets {
		randomizeConvs(tc.net, tensor.NewRNG(17))
	}
	forEachKernel(t, func(t *testing.T) {
		for _, tc := range nets {
			net := tc.net
			random := tensor.New(8, 3, net.InputH, net.InputW)
			tensor.NewRNG(5).FillUniform(random.Data, 0, 1)
			inputs := map[string]*tensor.Tensor{
				"random": random,
				"poison": poisonFrames(8, 3, net.InputH, net.InputW),
				"zeros":  signedZeroFrames(8, 3, net.InputH, net.InputW),
			}
			for kind, x := range inputs {
				want := layerChain(net, x)
				replica := net.CloneForInference()
				for _, b := range []int{8, 3, 1} {
					what := fmt.Sprintf("%s %s batch %d", tc.name, kind, b)
					done := make([]int, len(net.Layers)) // images each step has reported
					pairs := 0
					got := replica.ForwardSteps(images(x, 0, b), func(lo, hi int, out *tensor.Tensor) {
						if hi-lo == 2 && done[lo] == 0 {
							pairs++
						}
						assertSameBits(t, fmt.Sprintf("%s step [%d, %d) images %d+%d", what, lo, hi, done[lo], out.N), out, images(want[hi-1], done[lo], out.N))
						done[lo] += out.N
					})
					if pairs != 5 {
						t.Fatalf("%s: the plan fuses %d conv → pool pairs, want DroNet's 5", what, pairs)
					}
					assertSameBits(t, what, got, images(want[len(want)-1], 0, b))
				}
			}
		}
	})
}

func buildDroNet256(t *testing.T) *network.Network {
	t.Helper()
	net, _, err := models.Build(models.DroNet, 256, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// FuzzConvPool2x2Fused holds a conv → 2×2 pool network's plan to its layer
// chain bit for bit under every kernel family, over fuzzer-chosen input
// channels and map sizes (odd included: those pairs stay two steps), 1–13
// filters (the thin strips of the finishing kernel), 1×1 and 3×3 kernels,
// strides, padding, pool padding and special inputs and weights. Up to 40
// channels at 3×3 take the fan-in past one K block, where the pair stays
// unfused.
func FuzzConvPool2x2Fused(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(32), uint8(32), uint8(7), true, uint8(0), uint8(1), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(12), uint8(30), uint8(22), uint8(12), true, uint8(0), uint8(1), uint8(1), uint8(3))
	f.Add(uint64(3), uint8(5), uint8(15), uint8(9), uint8(2), false, uint8(1), uint8(0), uint8(0), uint8(2))
	f.Add(uint64(4), uint8(39), uint8(12), uint8(12), uint8(13), true, uint8(0), uint8(1), uint8(0), uint8(0))
	f.Add(uint64(5), uint8(2), uint8(64), uint8(50), uint8(13), true, uint8(0), uint8(1), uint8(1), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, c, h, w, filters uint8, k3 bool, strideM1, pad, poolPad, every uint8) {
		rng := tensor.NewRNG(seed)
		in := layers.Shape{C: int(c)%40 + 1, H: int(h)%64 + 1, W: int(w)%64 + 1}
		ksize := 1
		if k3 {
			ksize = 3
		}
		conv, err := layers.NewConv2D(in, int(filters)%13+1, ksize, int(strideM1)%2+1, int(pad)%2, seed%2 == 0, layers.Activation(seed/2%2), rng)
		if err != nil {
			t.Skip(err)
		}
		pool, err := layers.NewMaxPool(conv.OutShape(), 2, 2, int(poolPad)%2)
		if err != nil {
			t.Skip(err)
		}
		net := network.New("fuzz", in.W, in.H, in.C)
		if err := net.Add(conv); err != nil {
			t.Fatal(err)
		}
		if err := net.Add(pool); err != nil {
			t.Fatal(err)
		}
		randomizeConvs(net, rng)
		x := tensor.New(2, in.C, in.H, in.W)
		rng.FillUniform(x.Data, -1, 1)
		if every %= 8; every > 0 {
			specials := []float32{float32(math.Copysign(0, -1)), 0, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 3e38}
			for i := range x.Data {
				if rng.Intn(int(every)*4) == 0 {
					x.Data[i] = specials[rng.Intn(len(specials))]
				}
			}
			for i := range conv.Weights.W.Data {
				if rng.Intn(int(every)*2) == 0 {
					conv.Weights.W.Data[i] = 0
				}
			}
			conv.InvalidateWeightPack()
		}
		defer tensor.SelectKernel("")
		for _, name := range tensor.AvailableKernels() {
			if err := tensor.SelectKernel(name); err != nil {
				t.Fatal(err)
			}
			want := layerChain(net, x)[1]
			assertSameBits(t, fmt.Sprintf("%s: %v, %s, fused %v", name, in, conv.Name(), conv.FusesPool(pool)), net.CloneForInference().ForwardBatch(x), want)
		}
	})
}
