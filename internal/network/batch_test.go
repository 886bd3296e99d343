package network_test

import (
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/models"
	"repro/internal/tensor"
)

// batchFrom packs per-image tensors into one N-batch tensor.
func batchFrom(imgs []*tensor.Tensor) *tensor.Tensor {
	n := len(imgs)
	c, h, w := imgs[0].C, imgs[0].H, imgs[0].W
	x := tensor.New(n, c, h, w)
	sample := c * h * w
	for i, img := range imgs {
		copy(x.Data[i*sample:(i+1)*sample], img.Data)
	}
	return x
}

// TestDetectBatchMatchesSerial is the micro-batcher's correctness anchor:
// one N-image batched forward must produce byte-identical per-image
// detections to N serial single-image forwards. Every layer loops over the
// batch with per-image im2col/decode and inference batch norm uses rolling
// statistics, so no image can influence another — this test guards that
// invariant against future layer refactors (e.g. a batched GEMM that
// changes accumulation order).
func TestDetectBatchMatchesSerial(t *testing.T) {
	net, _, err := models.Build(models.DroNet, 64, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	rng := tensor.NewRNG(9)
	cfg := dataset.DefaultConfig(64)
	imgs := make([]*tensor.Tensor, n)
	for i := range imgs {
		imgs[i] = dataset.GenerateScene(cfg, rng).Image.ToTensor()
	}
	const thresh, nms = 0.1, 0.45

	serialNet := net.CloneForInference()
	expected := make([][]detect.Detection, n)
	for i, img := range imgs {
		dets, err := serialNet.Detect(img, thresh, nms)
		if err != nil {
			t.Fatal(err)
		}
		expected[i] = dets
	}

	batchNet := net.CloneForInference()
	got, err := batchNet.DetectBatch(batchFrom(imgs), thresh, nms)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("DetectBatch returned %d result sets for %d images", len(got), n)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], expected[i]) {
			t.Errorf("image %d: batched detections differ from serial\nbatched: %v\nserial:  %v", i, got[i], expected[i])
		}
	}

	// Varying the batch size afterwards must keep the identity: workspaces
	// re-slice over the grown storage, and stale tail data must not leak.
	for _, sub := range [][]int{{0, 1}, {2, 0, 3}, {1}} {
		part := make([]*tensor.Tensor, len(sub))
		for j, idx := range sub {
			part[j] = imgs[idx]
		}
		got, err := batchNet.DetectBatch(batchFrom(part), thresh, nms)
		if err != nil {
			t.Fatal(err)
		}
		for j, idx := range sub {
			if !reflect.DeepEqual(got[j], expected[idx]) {
				t.Errorf("sub-batch %v image %d: detections differ after batch-size change", sub, idx)
			}
		}
	}
}
