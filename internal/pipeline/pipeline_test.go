package pipeline

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/network"
	"repro/internal/tensor"
)

const pipeCfg = `
[net]
width=48
height=48
channels=3

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
filters=18
size=1
stride=1
activation=linear

[region]
anchors=0.6,0.6, 1.0,1.0, 1.6,1.6
classes=1
num=3
`

func pipeNet(t *testing.T) *network.Network {
	t.Helper()
	d, err := cfg.ParseString(pipeCfg)
	if err != nil {
		t.Fatal(err)
	}
	net, _, err := cfg.Build("pipe", d, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func camConfig() dataset.SceneConfig {
	c := dataset.DefaultConfig(48)
	c.VehiclesMin, c.VehiclesMax = 1, 3
	return c
}

func TestSimCameraProducesFrames(t *testing.T) {
	cam := NewSimCamera(camConfig(), 3, 1)
	for i := 0; i < 3; i++ {
		f, ok := cam.Next()
		if !ok {
			t.Fatalf("camera ended early at %d", i)
		}
		if f.Index != i || f.Image == nil {
			t.Fatalf("bad frame %+v", f)
		}
		if f.Altitude <= 0 {
			t.Fatal("frame missing altitude")
		}
	}
	if _, ok := cam.Next(); ok {
		t.Fatal("camera must end after Frames frames")
	}
}

func TestDatasetSourceReplays(t *testing.T) {
	ds := dataset.Generate(camConfig(), 2, 3)
	src := &DatasetSource{Data: ds}
	n := 0
	for {
		_, ok := src.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 2 {
		t.Fatalf("replayed %d frames, want 2", n)
	}
}

func TestRunnerProcessesStream(t *testing.T) {
	var seen int
	r := &Runner{
		BatchRunner: BatchRunner{Net: pipeNet(t), Thresh: 0.1},
		OnFrame: func(f Frame, dets []detect.Detection) {
			seen++
		},
	}
	st, err := r.Run(NewSimCamera(camConfig(), 5, 2))
	if err != nil {
		t.Fatal(err)
	}
	if st.Frames != 5 || seen != 5 {
		t.Fatalf("frames = %d, callbacks = %d", st.Frames, seen)
	}
	if st.FPS <= 0 || st.MeanLatency <= 0 || st.MaxLatency < st.MeanLatency {
		t.Fatalf("stats implausible: %+v", st)
	}
	if st.String() == "" {
		t.Fatal("empty stats string")
	}
}

func TestRunnerRequiresNetwork(t *testing.T) {
	r := &Runner{}
	if _, err := r.Run(NewSimCamera(camConfig(), 1, 1)); err == nil {
		t.Fatal("expected error for nil network")
	}
}

func TestRunnerResizesMismatchedFrames(t *testing.T) {
	// 96px camera frames through a 48px network input.
	cfg96 := camConfig()
	cfg96.Width, cfg96.Height = 96, 96
	r := &Runner{BatchRunner: BatchRunner{Net: pipeNet(t), Thresh: 0.1}}
	st, err := r.Run(NewSimCamera(cfg96, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if st.Frames != 2 {
		t.Fatalf("frames = %d", st.Frames)
	}
}

func TestRunnerAltitudeFilterReducesDetections(t *testing.T) {
	// With an untrained network and a low threshold, decode produces many
	// boxes of arbitrary size; the altitude gate must prune some.
	f := detect.NewVehicleAltitudeFilter()
	base := &Runner{BatchRunner: BatchRunner{Net: pipeNet(t), Thresh: 0.01}}
	st1, err := base.Run(NewSimCamera(camConfig(), 3, 7))
	if err != nil {
		t.Fatal(err)
	}
	gated := &Runner{BatchRunner: BatchRunner{Net: pipeNet(t), Thresh: 0.01, AltitudeFilter: &f}}
	st2, err := gated.Run(NewSimCamera(camConfig(), 3, 7))
	if err != nil {
		t.Fatal(err)
	}
	if st1.Detections == 0 {
		t.Skip("untrained net produced no raw detections; nothing to gate")
	}
	if st2.Detections > st1.Detections {
		t.Fatalf("altitude filter added detections: %d > %d", st2.Detections, st1.Detections)
	}
}

// TestSimCameraSeedsDistinct guards the per-camera seeding: consecutive
// seeds must yield different frame sequences (a former `seed | 1` in the
// camera's RNG seeding made even seed N collide with N+1, silently
// duplicating fleet streams derived as base+i).
func TestSimCameraSeedsDistinct(t *testing.T) {
	cfg := camConfig()
	a, ok := NewSimCamera(cfg, 1, 8).Next()
	b, ok2 := NewSimCamera(cfg, 1, 9).Next()
	if !ok || !ok2 {
		t.Fatal("cameras produced no frames")
	}
	for i := range a.Image.Pix {
		if a.Image.Pix[i] != b.Image.Pix[i] {
			return
		}
	}
	t.Fatal("seeds 8 and 9 produced identical frames")
}
