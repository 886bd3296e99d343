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

// TestPoolBoundsAndFree covers the pool's edges: ids outside
// 0..Workers-1 are rejected, a replica holds no workspace until it runs,
// and Free ends the pool — its workspace reads zero and a later
// ExecuteBatch errors instead of re-creating a replica.
func TestPoolBoundsAndFree(t *testing.T) {
	e, err := engine.New(buildNet(t), engine.Config{Workers: 2, Thresh: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if ws := e.WorkspaceBytes(); ws != 0 {
		t.Fatalf("workspace before any batch = %d bytes, want 0", ws)
	}
	batch := cameraFrames(5, 1)
	if _, err := e.ExecuteBatch(1, batch, nil); err != nil {
		t.Fatal(err)
	}
	ran := e.WorkspaceBytes()
	if ran <= 0 {
		t.Fatalf("workspace after one batch = %d bytes, want > 0", ran)
	}
	for _, id := range []int{-1, 2} {
		if _, err := e.ExecuteBatch(id, batch, nil); err == nil {
			t.Errorf("worker id %d accepted by a 2-worker pool", id)
		}
	}
	if _, err := e.ExecuteBatch(0, batch, nil); err != nil {
		t.Fatal(err)
	}
	if ws := e.WorkspaceBytes(); ws != 2*ran {
		t.Errorf("workspace after both replicas ran = %d bytes, want %d", ws, 2*ran)
	}

	e.Free()
	if ws := e.WorkspaceBytes(); ws != 0 {
		t.Errorf("workspace after Free = %d bytes, want 0", ws)
	}
	if _, err := e.ExecuteBatch(0, batch, nil); err == nil {
		t.Error("ExecuteBatch after Free succeeded")
	}
}
