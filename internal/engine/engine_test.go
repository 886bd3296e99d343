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

// TestWorkerCap covers the lazily-raised worker cap behind idle-worker
// lending: ids at or above the cap are rejected, SetWorkerCap only ever
// raises, and a raised cap admits batch execution on the grown replica.
func TestWorkerCap(t *testing.T) {
	net, _, err := models.Build(models.DroNet, 64, tensor.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(net, engine.Config{Workers: 1, Thresh: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Free()
	if e.WorkerCap() != 1 {
		t.Fatalf("initial cap = %d, want the nominal worker count 1", e.WorkerCap())
	}

	img := &imgproc.Image{W: 64, H: 64, Pix: make([]float32, 3*64*64)}
	batch := []*imgproc.Image{img}
	want, err := e.ExecuteBatch(0, batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecuteBatch(1, batch, nil); err == nil {
		t.Fatal("worker id above the cap accepted")
	}
	if _, err := e.ExecuteBatch(-1, batch, nil); err == nil {
		t.Fatal("negative worker id accepted")
	}

	e.SetWorkerCap(3)
	if e.WorkerCap() != 3 {
		t.Fatalf("cap after raise = %d, want 3", e.WorkerCap())
	}
	e.SetWorkerCap(2) // lowering is a no-op: in-flight borrowed ids stay valid
	if e.WorkerCap() != 3 {
		t.Fatalf("cap after attempted lower = %d, want 3 (never lowers)", e.WorkerCap())
	}
	got, err := e.ExecuteBatch(2, batch, nil)
	if err != nil {
		t.Fatalf("borrowed replica id rejected after raise: %v", err)
	}
	if len(got) != len(want) || len(got[0]) != len(want[0]) {
		t.Errorf("borrowed replica diverges from worker 0: %d dets vs %d", len(got[0]), len(want[0]))
	}
}
