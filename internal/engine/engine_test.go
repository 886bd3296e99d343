package engine_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/imgproc"
	"repro/internal/models"
	"repro/internal/network"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

func buildNet(t *testing.T) *network.Network {
	t.Helper()
	net, _, err := models.Build(models.DroNet, 64, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// cameraFrames renders one deterministic simulated camera's frames; small
// frames matching the network input keep resize out of the hot loop.
func cameraFrames(seed uint64, frames int) []*imgproc.Image {
	c := dataset.DefaultConfig(64)
	c.VehiclesMin, c.VehiclesMax = 1, 3
	cam := pipeline.NewSimCamera(c, frames, seed)
	imgs := make([]*imgproc.Image, frames)
	for i := range imgs {
		f, _ := cam.Next()
		imgs[i] = f.Image
	}
	return imgs
}

// TestExecuteBatchMatchesSerial is the engine's correctness anchor: two
// workers executing micro-batches concurrently on weight-sharing replicas
// must return, image for image, exactly the detections of a serial
// per-image BatchRunner.Detect over the same frames.
func TestExecuteBatchMatchesSerial(t *testing.T) {
	net := buildNet(t)
	const cameras, frames, workers = 4, 4, 2
	batches := make([][]*imgproc.Image, cameras)
	for c := range batches {
		batches[c] = cameraFrames(uint64(100+c), frames)
	}

	serial := &pipeline.BatchRunner{Net: net.CloneForInference(), Thresh: 0.1}
	want := make([][][]detect.Detection, cameras)
	total := 0
	for c, imgs := range batches {
		for _, img := range imgs {
			per, err := serial.Detect([]*imgproc.Image{img}, nil)
			if err != nil {
				t.Fatal(err)
			}
			want[c] = append(want[c], per[0])
			total += len(per[0])
		}
	}
	if total == 0 {
		t.Fatal("test degenerated: no detections in the serial reference")
	}

	eng, err := engine.New(net, engine.Config{Workers: workers, Thresh: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	got := make([][][]detect.Detection, cameras)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := w; c < cameras; c += workers {
				per, err := eng.ExecuteBatch(w, batches[c], nil)
				if err != nil {
					errs[w] = err
					return
				}
				// The outer slice is the replica's workspace; keep a copy.
				got[c] = append([][]detect.Detection(nil), per...)
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for c := range want {
		if !reflect.DeepEqual(got[c], want[c]) {
			t.Errorf("camera %d: batched detections differ from the serial reference", c)
		}
	}

	if _, err := eng.ExecuteBatch(workers, batches[0], nil); err == nil {
		t.Error("ExecuteBatch accepted a worker id outside the pool")
	}
}

// TestNewRejectsInvalid covers the models New refuses.
func TestNewRejectsInvalid(t *testing.T) {
	if _, err := engine.New(nil, engine.Config{}); err == nil {
		t.Error("New(nil) should fail")
	}
	headless := network.New("headless", 8, 8, 3)
	if _, err := engine.New(headless, engine.Config{}); err == nil {
		t.Error("New without region layer should fail")
	}
}
