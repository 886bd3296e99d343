package network_test

import (
	"math"
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

// poisonFrames returns n frames filled, frame by frame, with NaN, +Inf,
// −Inf, and ±3e38 in runs of seven (finite, but its products overflow): a
// forward on them leaves NaN and ±Inf in both of a replica's activation
// slabs, as pooling drops NaN but keeps an infinity.
func poisonFrames(n, c, h, w int) *tensor.Tensor {
	x := tensor.New(n, c, h, w)
	for b := 0; b < n; b++ {
		d := x.Batch(b).Data
		for i := range d {
			d[i] = [4]float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), [2]float32{3e38, -3e38}[i/7%2]}[b%4]
		}
	}
	return x
}

// TestForwardIgnoresStaleSlabs pins the inference steps' memory contract:
// each Infer fully overwrites its output before reading it, and reads only
// the step before it. A batch-8 forward on non-finite frames leaves NaN and
// ±Inf in both activation slabs, beyond what a smaller batch uses too; a
// batch-3 forward on real frames must then give, image by image, the bytes
// of a fresh replica's batch-1 forward.
func TestForwardIgnoresStaleSlabs(t *testing.T) {
	net := buildSmallDroNet(t)
	x := tensor.New(3, 3, net.InputH, net.InputW)
	tensor.NewRNG(5).FillUniform(x.Data, 0, 1)

	used := net.CloneForInference()
	used.ForwardBatch(poisonFrames(8, 3, net.InputH, net.InputW))
	got := used.ForwardBatch(x)
	for b := 0; b < x.N; b++ {
		want := net.CloneForInference().ForwardBatch(x.Batch(b))
		for i, v := range want.Data {
			if g := got.Batch(b).Data[i]; math.Float32bits(g) != math.Float32bits(v) {
				t.Fatalf("image %d: out[%d] = %v after a poisoned batch-8 pass, fresh replica %v", b, i, g, v)
			}
		}
	}
}
