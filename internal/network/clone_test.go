package network_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/detect"
	"repro/internal/layers"
	"repro/internal/models"
	"repro/internal/network"
	"repro/internal/tensor"
)

func buildSmallDroNet(t *testing.T) *network.Network {
	t.Helper()
	net, _, err := models.Build(models.DroNet, 64, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestCloneSharesParamsNotWorkspace pins the clone contract: the layers,
// and with them the parameter tensors, are the very same objects, while
// forward passes write into distinct output buffers.
func TestCloneSharesParamsNotWorkspace(t *testing.T) {
	net := buildSmallDroNet(t)
	clone := net.CloneForInference()

	if len(clone.Layers) != len(net.Layers) {
		t.Fatalf("layer count mismatch: %d vs %d", len(net.Layers), len(clone.Layers))
	}
	for i, l := range net.Layers {
		if clone.Layers[i] != l {
			t.Fatalf("layer %d (%s): clone does not share the layer instance", i, l.Name())
		}
	}
	op, cp := net.Params(), clone.Params()
	if len(op) != len(cp) {
		t.Fatalf("param count mismatch: %d vs %d", len(op), len(cp))
	}
	for i := range op {
		if op[i].W != cp[i].W {
			t.Fatalf("param %d (%s): clone does not share the weight tensor", i, op[i].Name)
		}
	}

	x := tensor.New(1, 3, net.InputH, net.InputW)
	tensor.NewRNG(2).FillUniform(x.Data, 0, 1)
	a := net.Forward(x, false)
	b := clone.Forward(x, false)
	if a == b {
		t.Fatal("original and clone share a forward output buffer")
	}
	if !reflect.DeepEqual(a.Data, b.Data) {
		t.Fatal("original and clone disagree on identical input")
	}
}

// TestCloneConcurrentDetectIdentical is the concurrency-correctness check:
// two inference replicas run on separate goroutines over the same frames and
// must produce byte-identical detections (run under -race to also prove the
// replicas share no mutable state).
func TestCloneConcurrentDetectIdentical(t *testing.T) {
	net := buildSmallDroNet(t)

	const frames = 6
	inputs := make([]*tensor.Tensor, frames)
	rng := tensor.NewRNG(3)
	for i := range inputs {
		inputs[i] = tensor.New(1, 3, net.InputH, net.InputW)
		rng.FillUniform(inputs[i].Data, 0, 1)
	}

	// Reference: serial detections from the original network.
	want := make([][]detect.Detection, frames)
	for i, x := range inputs {
		dets, err := net.Detect(x, 0.1, 0.45)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = dets
	}

	const replicas = 2
	got := make([][][]detect.Detection, replicas)
	errs := make([]error, replicas)
	var wg sync.WaitGroup
	for r := 0; r < replicas; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rep := net.CloneForInference()
			got[r] = make([][]detect.Detection, frames)
			for i, x := range inputs {
				dets, err := rep.Detect(x, 0.1, 0.45)
				if err != nil {
					errs[r] = err
					return
				}
				got[r][i] = dets
			}
		}(r)
	}
	wg.Wait()

	detected := 0
	for r := 0; r < replicas; r++ {
		if errs[r] != nil {
			t.Fatalf("replica %d: %v", r, errs[r])
		}
		for i := range want {
			if !reflect.DeepEqual(want[i], got[r][i]) {
				t.Errorf("replica %d frame %d: detections differ from serial reference", r, i)
			}
			detected += len(got[r][i])
		}
	}
	if detected == 0 {
		t.Fatal("test degenerated: no detections on any frame")
	}
}

// TestScratchBytesInferenceHoldsNoColumnMatrix pins the workspace accounting
// of the implicit-GEMM inference path: after warming at batch 2, a replica
// reports its two activation slabs — the largest even-step and the largest
// odd-step output, times the batch (the batch is one image group at 64²),
// where a conv and the 2×2/2 pool it fuses are one step writing the pooled
// output and the last step writes the final buffer instead — plus the final
// buffer and its arena, and the arena holds the largest padded input plane
// (the first layer's 3×66×66 floats; the arena is reset before every step,
// so there is one plane at a time) and at most a few hundred floats more, so
// no 3×3 layer's im2col matrix fits (the smallest, conv8's 216·4·4 floats,
// is 13.5 KB).
func TestScratchBytesInferenceHoldsNoColumnMatrix(t *testing.T) {
	net := buildSmallDroNet(t)
	const batch = 2
	x := tensor.New(batch, 3, net.InputH, net.InputW)
	tensor.NewRNG(4).FillUniform(x.Data, 0, 1)
	replica := net.CloneForInference()
	replica.ForwardBatch(x)
	var outs []int64
	for i := 0; i < len(replica.Layers); i++ {
		s := replica.Layers[i].OutShape()
		if c, ok := replica.Layers[i].(*layers.Conv2D); ok && i+1 < len(replica.Layers) {
			if p, ok := replica.Layers[i+1].(*layers.MaxPool); ok && c.FusesPool(p) {
				s = p.OutShape()
				i++
			}
		}
		outs = append(outs, int64(s.Size()))
	}
	var perImage [2]int64
	for i, size := range outs[:len(outs)-1] {
		perImage[i%2] = max(perImage[i%2], size)
	}
	slabs := 4 * batch * (perImage[0] + perImage[1] + outs[len(outs)-1])
	plane := int64(4 * 3 * 66 * 66)
	if arena := replica.ScratchBytes() - slabs; arena < plane || arena >= plane+4*1024 {
		t.Fatalf("warmed inference replica reports %d scratch bytes, %d beyond its %d slab bytes; want the %d-byte padded plane and a few hundred floats",
			replica.ScratchBytes(), arena, slabs, plane)
	}
}
