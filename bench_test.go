// Benchmarks regenerating the paper's tables and figures on the host CPU.
// Each paper artefact has a bench (plus a printing harness in cmd/): the
// wall-clock numbers here give the *measured* arm of the reproduction,
// complementing the calibrated platform model (internal/platform). Absolute
// values differ from the paper's testbeds; the shape — which model wins and
// by roughly what factor — is the reproduction target.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/demo"
	"repro/internal/eval"
	"repro/internal/layers"
	"repro/internal/models"
	"repro/internal/network"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/tensor"
)

func buildNet(b *testing.B, name string, size int) *network.Network {
	b.Helper()
	net, _, err := models.Build(name, size, tensor.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	return net
}

func randImage(net *network.Network) *tensor.Tensor {
	x := tensor.New(1, 3, net.InputH, net.InputW)
	tensor.NewRNG(7).FillUniform(x.Data, 0, 1)
	return x
}

// BenchmarkFig1Forward measures a single-image forward pass of each of the
// paper's four architectures at input 416 (Fig. 1 structures). The measured
// ratio between models is the host-side counterpart of Fig. 3's FPS axis.
func BenchmarkFig1Forward(b *testing.B) {
	for _, name := range models.Names() {
		b.Run(name, func(b *testing.B) {
			net := buildNet(b, name, 416)
			x := randImage(net)
			net.Forward(x, false) // warm buffers outside the timer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Forward(x, false)
			}
			b.ReportMetric(float64(net.FLOPs())/1e6, "MFLOPs/img")
		})
	}
}

// BenchmarkFig3DroNetInputSizes measures DroNet across the paper's input
// size range 352-608 (Fig. 3's x-axis, E8's size study).
func BenchmarkFig3DroNetInputSizes(b *testing.B) {
	for _, size := range []int{352, 416, 480, 544, 608} {
		b.Run(fmt.Sprintf("size%d", size), func(b *testing.B) {
			net := buildNet(b, models.DroNet, size)
			x := randImage(net)
			net.Forward(x, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Forward(x, false)
			}
		})
	}
}

// BenchmarkFig4ScoreSelection times the full Fig. 4 model-selection
// computation: platform predictions for all models and sizes, metric
// normalization, and the weighted score (eq. 3).
func BenchmarkFig4ScoreSelection(b *testing.B) {
	type cfg struct {
		name string
		size int
	}
	var cfgs []cfg
	var nets []*network.Network
	for _, name := range models.Names() {
		for _, size := range []int{352, 480, 608} {
			cfgs = append(cfgs, cfg{name, size})
			nets = append(nets, buildNet(b, name, size))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms := make([]eval.Metrics, len(nets))
		for j, net := range nets {
			ms[j] = eval.Metrics{FPS: platform.IntelI5.Predict(net).FPS, MeanIoU: 0.8, Sensitivity: 0.9, Precision: 0.9}
		}
		norm := eval.Normalize(ms)
		best := -1.0
		for _, m := range norm {
			if s := eval.Score(eval.PaperWeights, m); s > best {
				best = s
			}
		}
		if best <= 0 {
			b.Fatal("score selection degenerated")
		}
	}
}

// BenchmarkTableSpeedups times the §IV.A/§IV.B platform-model tables (E5,
// E6, E7): predicted FPS for every model on every platform at 512.
func BenchmarkTableSpeedups(b *testing.B) {
	var nets []*network.Network
	for _, name := range models.Names() {
		nets = append(nets, buildNet(b, name, 512))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range platform.All() {
			for _, net := range nets {
				if p.Predict(net).FPS <= 0 {
					b.Fatal("prediction collapsed")
				}
			}
		}
	}
}

// BenchmarkOdroidPipeline measures the §IV.B frame-by-frame processing loop
// on the host with the demo-scale DroNet: simulated camera, resize, detect,
// NMS — the full deployment path.
func BenchmarkOdroidPipeline(b *testing.B) {
	det, err := demo.NewScaledDroNet(128, 1)
	if err != nil {
		b.Fatal(err)
	}
	frames := make([]pipeline.Frame, 8)
	cam := pipeline.NewSimCamera(demo.SceneConfig(128), len(frames), 3)
	for i := range frames {
		frames[i], _ = cam.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := frames[i%len(frames)]
		dets, err := det.Net.Detect(f.Image.ToTensor(), det.Thresh, 0.45)
		if err != nil {
			b.Fatal(err)
		}
		_ = dets
	}
}

// BenchmarkTrainStep measures one SGD step (forward + backward + update) of
// the demo-scale DroNet — the unit of the training-time arm.
func BenchmarkTrainStep(b *testing.B) {
	det, err := demo.NewScaledDroNet(96, 1)
	if err != nil {
		b.Fatal(err)
	}
	ds := dataset.Generate(demo.SceneConfig(96), 2, 5)
	x := ds.Items[0].Image.ToTensor()
	truths := [][]layers.Truth{nil}
	for _, t := range ds.Items[0].Truths {
		truths[0] = append(truths[0], layers.Truth{Box: t.Box, Class: t.Class})
	}
	opt := network.SGD{LR: 0.001, Momentum: 0.9, Decay: 0.0005}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.Net.TrainStep(x, truths); err != nil {
			b.Fatal(err)
		}
		det.Net.Update(opt, 1)
	}
}

// BenchmarkSceneGeneration measures the synthetic data substrate: one full
// 512x512 aerial scene render with annotations.
func BenchmarkSceneGeneration(b *testing.B) {
	cfg := dataset.DefaultConfig(512)
	rng := tensor.NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		item := dataset.GenerateScene(cfg, rng)
		if item.Image == nil {
			b.Fatal("no image")
		}
	}
}
