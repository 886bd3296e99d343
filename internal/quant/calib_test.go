package quant

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/layers"
	"repro/internal/models"
	"repro/internal/network"
	"repro/internal/tensor"
)

// layerByLayerQConvs is the reference calibration: every layer's Infer into
// a fresh output, one layer after the other, observing each conv's input
// range, then quantizeConv per conv. It returns the QConvs by layer index.
func layerByLayerQConvs(t *testing.T, net *network.Network, calibration []*tensor.Tensor) map[int]*QConv {
	t.Helper()
	folded, err := FoldBatchNorm(net)
	if err != nil {
		t.Fatal(err)
	}
	maxAbs := make([]float32, len(folded.Layers))
	var a tensor.Arena
	for _, img := range calibration {
		x := img
		for i, l := range folded.Layers {
			if _, ok := l.(*layers.Conv2D); ok {
				if m := x.MaxAbs(); m > maxAbs[i] {
					maxAbs[i] = m
				}
			}
			s := l.OutShape()
			out := tensor.New(x.N, s.C, s.H, s.W)
			a.Reset()
			l.Infer(x, out, &a)
			x = out
		}
	}
	qcs := map[int]*QConv{}
	for i, l := range folded.Layers {
		if c, ok := l.(*layers.Conv2D); ok {
			if qcs[i], err = quantizeConv(c, maxAbs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return qcs
}

// bnFreeDroNet builds DroNet at size² with every batch norm dropped and
// random biases: a network that folds to a copy of itself.
func bnFreeDroNet(t *testing.T, size int) *network.Network {
	t.Helper()
	text, err := models.Cfg(models.DroNet, size)
	if err != nil {
		t.Fatal(err)
	}
	def, err := cfg.ParseString(strings.ReplaceAll(text, "batch_normalize=1", "batch_normalize=0"))
	if err != nil {
		t.Fatal(err)
	}
	net, _, err := cfg.Build("dronet-nobn", def, tensor.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(8)
	for _, l := range net.Layers {
		c, ok := l.(*layers.Conv2D)
		if !ok {
			continue
		}
		if c.BatchNorm {
			t.Fatalf("layer %s: want no batch norm", l.Name())
		}
		rng.FillUniform(c.Biases.W.Data, -0.5, 0.5)
	}
	return net
}

func sameBits32(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// TestQuantizeMatchesLayerByLayerCalibration holds Quantize, which
// calibrates through the compiled plan (each conv and its 2×2/2 pool one
// step, a batch in image groups), to the layer-by-layer calibration bit for
// bit: every QConv's ActScale, WScale, W and Bias. It covers DroNet at 64²,
// a BN-free DroNet at 64², and DroNet at 256², where one image is a group,
// on a two-image calibration tensor.
func TestQuantizeMatchesLayerByLayerCalibration(t *testing.T) {
	for _, tc := range []struct {
		name  string
		net   *network.Network
		calib []*tensor.Tensor
	}{
		{"dronet-64", buildDroNet(t, 64), randImages(3, 3, 64, 64, 41)},
		{"dronet-nobn-64", bnFreeDroNet(t, 64), randImages(3, 3, 64, 64, 42)},
		{"dronet-256", buildDroNet(t, 256), func() []*tensor.Tensor {
			x := tensor.New(2, 3, 256, 256)
			tensor.NewRNG(43).FillUniform(x.Data, 0, 1)
			return []*tensor.Tensor{x}
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, l := range tc.net.Layers {
				if c, ok := l.(*layers.Conv2D); ok && c.BatchNorm {
					tensor.NewRNG(9).FillUniform(c.Scales.W.Data, 0.5, 1.5)
					tensor.NewRNG(10).FillUniform(c.RollingMean.Data, -0.3, 0.3)
					tensor.NewRNG(11).FillUniform(c.RollingVar.Data, 0.2, 2)
				}
			}
			want := layerByLayerQConvs(t, tc.net, tc.calib)
			q, err := Quantize(tc.net, tc.calib)
			if err != nil {
				t.Fatal(err)
			}
			seen := 0
			for i, l := range q.Layers {
				got, ok := l.(*QConv)
				if !ok {
					continue
				}
				seen++
				w := want[i]
				if w == nil {
					t.Fatalf("layer %d: QConv where the reference has %s", i, tc.net.Layers[i].Name())
				}
				what := fmt.Sprintf("layer %d (%s)", i, got.Name())
				if math.Float32bits(got.ActScale) != math.Float32bits(w.ActScale) {
					t.Errorf("%s: ActScale %v, layer by layer %v", what, got.ActScale, w.ActScale)
				}
				if !sameBits32(got.WScale, w.WScale) {
					t.Errorf("%s: WScale differs from layer by layer", what)
				}
				if !sameBits32(got.Bias, w.Bias) {
					t.Errorf("%s: Bias differs from layer by layer", what)
				}
				if !slices.Equal(got.W, w.W) {
					t.Errorf("%s: W differs from layer by layer", what)
				}
			}
			if seen != len(want) || seen == 0 {
				t.Fatalf("Quantize made %d QConvs, layer by layer %d", seen, len(want))
			}
		})
	}
}
