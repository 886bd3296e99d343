package weights

import (
	"bytes"
	"testing"

	"repro/internal/models"
	"repro/internal/network"
	"repro/internal/tensor"
)

// TestCrossResolutionTransfer validates the multi-scale evaluation
// mechanism used by dronet sweep: convolution weights are independent
// of the spatial input size, so weights trained at one resolution load into
// the same architecture built at another.
func TestCrossResolutionTransfer(t *testing.T) {
	build := func(size int, seed uint64) *network.Network {
		net, _, err := models.Build(models.DroNet, size, tensor.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	src := build(96, 1)
	var buf bytes.Buffer
	if err := Save(src, &buf); err != nil {
		t.Fatal(err)
	}
	dst := build(160, 2)
	if err := Load(dst, &buf); err != nil {
		t.Fatalf("cross-resolution load failed: %v", err)
	}
	// Spot-check: first conv weights identical.
	sp, dp := src.Params(), dst.Params()
	for i := range sp[0].W.Data {
		if sp[0].W.Data[i] != dp[0].W.Data[i] {
			t.Fatal("weights changed in cross-resolution transfer")
		}
	}
	// The 160-input network must run with the transferred weights.
	x := tensor.New(1, 3, 160, 160)
	tensor.NewRNG(3).FillUniform(x.Data, 0, 1)
	if _, err := dst.Detect(x, 0.1, 0.45); err != nil {
		t.Fatal(err)
	}
}

// TestCrossArchitectureTransferFails ensures a weight file from a different
// architecture is rejected rather than silently misloaded.
func TestCrossArchitectureTransferFails(t *testing.T) {
	src, _, err := models.Build(models.DroNet, 96, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(src, &buf); err != nil {
		t.Fatal(err)
	}
	dst, _, err := models.Build(models.SmallYoloV3, 96, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := Load(dst, &buf); err == nil {
		t.Fatal("expected error loading DroNet weights into SmallYoloV3")
	}
}
