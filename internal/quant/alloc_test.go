package quant_test

import (
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// TestForwardZeroAlloc is the steady-state allocation contract of the
// serving hot path: after one warm-up pass at the converged batch size,
// batched forward inference — fp32 and int8 — must perform ZERO heap
// allocations per call. Every activation lives in the network's two slabs,
// everything transient (padded planes, quantized activations) in its
// scratch arena, and GEMM pack panels and microkernel edge tiles in pooled
// GEMM contexts; slabs and arena have grown to the batch. ForwardSteps with
// a callback timing each step is pinned at zero too.
//
// DetectBatch is additionally pinned at zero allocations when no detection
// fires (thresh > 1): decode scratch and the outer result slice are model
// workspace. With live detections it allocates exactly the per-image result
// slices the caller is allowed to retain — nothing else.
func TestForwardZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops items at random; steady-state pooling is unobservable")
	}
	net, _, err := models.Build(models.DroNet, 64, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	const batch = 4
	x := tensor.New(batch, 3, net.InputH, net.InputW)
	tensor.NewRNG(2).FillUniform(x.Data, 0, 1)

	calib := []*tensor.Tensor{x.Batch(0), x.Batch(1)}
	qnet, err := quant.Quantize(net, calib)
	if err != nil {
		t.Fatal(err)
	}

	// Warm-up: grows slabs and arenas, primes GEMM pools.
	net.ForwardBatch(x)
	qnet.ForwardBatch(x)

	if allocs := testing.AllocsPerRun(10, func() { net.ForwardBatch(x) }); allocs > 0 {
		t.Errorf("fp32 ForwardBatch allocates %.1f objects per call at steady state, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { qnet.ForwardBatch(x) }); allocs > 0 {
		t.Errorf("int8 ForwardBatch allocates %.1f objects per call at steady state, want 0", allocs)
	}

	// Watching the plan costs nothing either: a callback timing each step.
	ns := make([]time.Duration, len(net.Layers))
	t0 := time.Now()
	timer := func(lo, hi int, out *tensor.Tensor) {
		ns[lo] += time.Since(t0)
		t0 = time.Now()
	}
	if allocs := testing.AllocsPerRun(10, func() { net.ForwardSteps(x, timer) }); allocs > 0 {
		t.Errorf("fp32 ForwardSteps with a step timer allocates %.1f objects per call at steady state, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { qnet.ForwardSteps(x, timer) }); allocs > 0 {
		t.Errorf("int8 ForwardSteps with a step timer allocates %.1f objects per call at steady state, want 0", allocs)
	}

	// thresh > 1 cannot be met by conf*prob ≤ 1, so the decode stage runs
	// end to end without building result slices.
	if _, err := net.DetectBatch(x, 1.01, 0.45); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := net.DetectBatch(x, 1.01, 0.45); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("fp32 DetectBatch allocates %.1f objects per call at steady state, want 0", allocs)
	}
	if _, err := qnet.DetectBatch(x, 1.01, 0.45); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := qnet.DetectBatch(x, 1.01, 0.45); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("int8 DetectBatch allocates %.1f objects per call at steady state, want 0", allocs)
	}
}

// TestForwardZeroAllocAfterBatchShrink guards the grow-only slabs end to
// end, fp32 and int8: warming at the maximum micro-batch and then serving a
// smaller batch must not allocate either (arena carves and step outputs
// re-slice the grown slabs, never re-allocate).
func TestForwardZeroAllocAfterBatchShrink(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops items at random; steady-state pooling is unobservable")
	}
	net, _, err := models.Build(models.DroNet, 64, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	big := tensor.New(8, 3, net.InputH, net.InputW)
	tensor.NewRNG(3).FillUniform(big.Data, 0, 1)
	small := tensor.New(2, 3, net.InputH, net.InputW)
	copy(small.Data, big.Data[:small.Len()])

	qnet, err := quant.Quantize(net, []*tensor.Tensor{big.Batch(0), big.Batch(1)})
	if err != nil {
		t.Fatal(err)
	}

	net.ForwardBatch(big) // warm at max batch
	qnet.ForwardBatch(big)
	if allocs := testing.AllocsPerRun(10, func() { net.ForwardBatch(small) }); allocs > 0 {
		t.Errorf("fp32 ForwardBatch at a shrunk batch allocates %.1f objects per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { qnet.ForwardBatch(small) }); allocs > 0 {
		t.Errorf("int8 ForwardBatch at a shrunk batch allocates %.1f objects per call, want 0", allocs)
	}
}
