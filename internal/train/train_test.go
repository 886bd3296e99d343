package train

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/dataset"
	"repro/internal/network"
	"repro/internal/tensor"
)

// microCfg is a deliberately tiny detector (grid 6 on 48x48 input) so train
// tests run in milliseconds on one core.
const microCfg = `
[net]
width=48
height=48
channels=3
batch=4
learning_rate=0.002
momentum=0.9
decay=0.0005
max_batches=60
burn_in=5
steps=40
scales=0.1

[convolutional]
batch_normalize=1
filters=4
size=3
stride=1
pad=1
activation=leaky

[maxpool]
size=2
stride=2

[convolutional]
batch_normalize=1
filters=8
size=3
stride=1
pad=1
activation=leaky

[maxpool]
size=2
stride=2

[convolutional]
batch_normalize=1
filters=8
size=3
stride=1
pad=1
activation=leaky

[maxpool]
size=2
stride=2

[convolutional]
filters=18
size=1
stride=1
activation=linear

[region]
anchors=0.6,0.6, 1.0,1.0, 1.6,1.6
classes=1
num=3
`

func microNet(t *testing.T, seed uint64) (*network.Network, *cfg.Hyper) {
	t.Helper()
	d, err := cfg.ParseString(microCfg)
	if err != nil {
		t.Fatal(err)
	}
	net, hyper, err := cfg.Build("micro", d, tensor.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return net, hyper
}

// closeUpScenes generates small scenes with large, few vehicles, matching
// the micro detector's coarse grid: the scaled-training protocol trains a
// filter-scaled model (models.Scale) at a reduced input size and evaluates
// it on scenes of that size.
func closeUpScenes(n int, size int, seed uint64) *dataset.Dataset {
	c := dataset.DefaultConfig(size)
	c.AltMin, c.AltMax = 12, 20
	c.VehiclesMin, c.VehiclesMax = 1, 3
	c.TreeProb = 0
	c.NoiseStd = 0.01
	return dataset.Generate(c, n, seed)
}

func TestFromHyper(t *testing.T) {
	_, hyper := microNet(t, 1)
	c := FromHyper(hyper)
	if c.Batches != 60 || c.BatchSize != 4 || c.LR != 0.002 || c.BurnIn != 5 {
		t.Fatalf("FromHyper = %+v", c)
	}
	if len(c.Steps) != 1 || c.Steps[0] != 40 || c.Scales[0] != 0.1 {
		t.Fatalf("schedule = %+v", c)
	}
}

func TestRunValidation(t *testing.T) {
	net, _ := microNet(t, 1)
	empty := &dataset.Dataset{}
	if _, err := Run(net, empty, Config{Batches: 1}); err == nil {
		t.Fatal("expected error for empty dataset")
	}
	ds := closeUpScenes(2, 48, 1)
	if _, err := Run(net, ds, Config{Batches: 0}); err == nil {
		t.Fatal("expected error for zero batches")
	}
	if _, err := Run(net, ds, Config{Batches: 1, Steps: []int{1}}); err == nil {
		t.Fatal("expected error for steps/scales mismatch")
	}
}

func TestLRSchedule(t *testing.T) {
	c := Config{LR: 0.1, BurnIn: 10, Steps: []int{100, 200}, Scales: []float64{0.5, 0.1}}
	if lr := c.lrAt(0); lr >= 0.1*0.001 {
		t.Fatalf("burn-in start lr = %v, want tiny", lr)
	}
	if lr := c.lrAt(9); math.Abs(lr-0.1) > 1e-9 {
		t.Fatalf("burn-in end lr = %v, want 0.1", lr)
	}
	if lr := c.lrAt(50); lr != 0.1 {
		t.Fatalf("plateau lr = %v", lr)
	}
	if lr := c.lrAt(150); math.Abs(lr-0.05) > 1e-12 {
		t.Fatalf("after step 1 lr = %v, want 0.05", lr)
	}
	if lr := c.lrAt(250); math.Abs(lr-0.005) > 1e-12 {
		t.Fatalf("after step 2 lr = %v, want 0.005", lr)
	}
}

func TestRunReducesLoss(t *testing.T) {
	net, _ := microNet(t, 2)
	ds := closeUpScenes(8, 48, 3)
	var log strings.Builder
	res, err := Run(net, ds, Config{
		Batches: 40, BatchSize: 2, LR: 0.002, Momentum: 0.9, Decay: 0.0005,
		BurnIn: 4, Seed: 5, Log: &log, LogEvery: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != 40 {
		t.Fatalf("ran %d batches", res.Batches)
	}
	if len(res.Curve) < 4 {
		t.Fatalf("curve has %d points", len(res.Curve))
	}
	first, last := res.Curve[0], res.Curve[len(res.Curve)-1]
	if !(last < first) {
		t.Fatalf("smoothed loss did not decrease: %v -> %v", first, last)
	}
	if !strings.Contains(log.String(), "batch") {
		t.Fatal("log output missing")
	}
}

func TestEvaluateUntrainedNetworkIsBad(t *testing.T) {
	net, _ := microNet(t, 3)
	ds := closeUpScenes(4, 48, 7)
	m, err := Evaluate(net, ds, 0.5, 0.45)
	if err != nil {
		t.Fatal(err)
	}
	if m.Sensitivity > 0.5 {
		t.Fatalf("untrained network has suspicious sensitivity %v", m.Sensitivity)
	}
}

// TestTrainThenEvaluateLearns is the core learning integration test: a
// micro detector overfits a handful of close-up scenes and must then find a
// useful fraction of the vehicles it trained on.
func TestTrainThenEvaluateLearns(t *testing.T) {
	if testing.Short() {
		t.Skip("training integration test skipped in -short mode")
	}
	net, _ := microNet(t, 4)
	ds := closeUpScenes(6, 48, 11)
	_, err := Run(net, ds, Config{
		Batches: 400, BatchSize: 4, LR: 0.003, Momentum: 0.9, Decay: 0.0005,
		BurnIn: 10, Steps: []int{340}, Scales: []float64{0.1}, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	// With rescore the confidence target is the predicted IoU, so Darknet's
	// canonical demo threshold (0.24-ish) applies rather than 0.5.
	m, err := Evaluate(net, ds, 0.2, 0.45)
	if err != nil {
		t.Fatal(err)
	}
	if m.Sensitivity < 0.5 {
		t.Fatalf("after overfitting, sensitivity = %v (metrics %v)", m.Sensitivity, m)
	}
	if m.Precision < 0.4 {
		t.Fatalf("after overfitting, precision = %v (metrics %v)", m.Precision, m)
	}
}

func TestEvaluateResizesMismatchedImages(t *testing.T) {
	net, _ := microNet(t, 5)
	// 96px scenes evaluated through a 48px network input.
	ds := closeUpScenes(2, 96, 17)
	if _, err := Evaluate(net, ds, 0.5, 0.45); err != nil {
		t.Fatal(err)
	}
}
