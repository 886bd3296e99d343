// Package platform provides the analytical performance model that stands in
// for the paper's three deployment targets (Intel i5-2520M laptop CPU,
// Odroid-XU4, Raspberry Pi 3). FPS in the paper is a function of network
// workload and platform capability; since the physical boards are not
// available, a calibrated roofline model predicts per-layer execution time
// from exact FLOP counts, weight working-set size (cache residency) and
// activation traffic. The three platform parameter sets are calibrated
// against the paper's published anchor points (listed with the platform
// values below); the calibration is asserted by this package's tests.
package platform

import (
	"fmt"
	"strings"

	"repro/internal/layers"
	"repro/internal/network"
)

// Platform models a CPU deployment target for the Darknet-style runtime.
type Platform struct {
	Name string
	// CachedGFLOPS is the sustained convolution throughput when the layer's
	// weights fit in the last-level cache; SpilledGFLOPS applies when they
	// do not and every GEMM pass restreams weights from DRAM.
	CachedGFLOPS, SpilledGFLOPS float64
	// CacheBytes is the effective last-level cache capacity.
	CacheBytes int64
	// MemBWGBps is the sustained DRAM bandwidth; activation traffic imposes
	// a bandwidth floor on each layer.
	MemBWGBps float64
	// LayerOverheadSec is the fixed per-layer dispatch cost (buffer
	// management, im2col setup, threading) of the runtime.
	LayerOverheadSec float64
}

// The paper's three evaluation platforms. Peak numbers are calibrated so
// the model reproduces the paper's published FPS anchors:
// SmallYoloV3@386 ≈ 23 FPS on the i5; TinyYoloVoc@512 ≈ 0.1 FPS and
// DroNet@512 ≈ 8–10 FPS on the Odroid; DroNet@512 ≈ 5–6 FPS on the Pi 3.
var (
	IntelI5 = Platform{
		Name:             "Intel i5-2520M @3.2GHz",
		CachedGFLOPS:     4.0,
		SpilledGFLOPS:    3.0,
		CacheBytes:       3 << 20,
		MemBWGBps:        10,
		LayerOverheadSec: 1e-3,
	}
	OdroidXU4 = Platform{
		Name:             "Odroid-XU4 (Exynos 5422)",
		CachedGFLOPS:     4.0,
		SpilledGFLOPS:    0.9,
		CacheBytes:       2 << 20,
		MemBWGBps:        3,
		LayerOverheadSec: 1.5e-3,
	}
	RaspberryPi3 = Platform{
		Name:             "Raspberry Pi 3 (Cortex-A53)",
		CachedGFLOPS:     2.5,
		SpilledGFLOPS:    0.25,
		CacheBytes:       512 << 10,
		MemBWGBps:        1.5,
		LayerOverheadSec: 2e-3,
	}
)

// All returns the paper's platforms in presentation order.
func All() []Platform { return []Platform{IntelI5, OdroidXU4, RaspberryPi3} }

// ByName looks a platform up by a short case-insensitive alias
// ("i5", "odroid", "rpi3").
func ByName(name string) (Platform, error) {
	switch strings.ToLower(name) {
	case "i5", "cpu", "intel":
		return IntelI5, nil
	case "odroid", "xu4", "odroid-xu4":
		return OdroidXU4, nil
	case "rpi3", "pi", "raspberrypi3", "rpi":
		return RaspberryPi3, nil
	}
	return Platform{}, fmt.Errorf("platform: unknown platform %q (want i5, odroid, or rpi3)", name)
}

// LayerCost is the model's per-layer prediction.
type LayerCost struct {
	Name    string
	FLOPs   int64
	Weights int64 // bytes
	IO      int64 // bytes
	Seconds float64
}

// Prediction is the per-image cost breakdown for a network on a platform.
type Prediction struct {
	Platform string
	Network  string
	Layers   []LayerCost
	Seconds  float64
	FPS      float64
}

// weightBytes sums the parameter bytes of a layer.
func weightBytes(l layers.Layer) int64 {
	var total int64
	for _, p := range l.Params() {
		total += int64(p.W.Len()) * 4
	}
	return total
}

// LayerTime predicts one layer's execution time: compute time at the
// cache-dependent throughput, floored by activation-traffic bandwidth, plus
// the fixed dispatch overhead.
func (p Platform) LayerTime(flops, wBytes, ioBytes int64) float64 {
	gflops := p.CachedGFLOPS
	if wBytes > p.CacheBytes {
		gflops = p.SpilledGFLOPS
	}
	compute := float64(flops) / (gflops * 1e9)
	traffic := float64(ioBytes) / (p.MemBWGBps * 1e9)
	t := compute
	if traffic > t {
		t = traffic
	}
	return t + p.LayerOverheadSec
}

// Predict computes the per-image latency and FPS of a network on the
// platform.
func (p Platform) Predict(net *network.Network) Prediction {
	pred := Prediction{Platform: p.Name, Network: net.Name}
	for _, l := range net.Layers {
		wb := weightBytes(l)
		sec := p.LayerTime(l.FLOPs(), wb, l.IOBytes())
		pred.Layers = append(pred.Layers, LayerCost{
			Name:    l.Name(),
			FLOPs:   l.FLOPs(),
			Weights: wb,
			IO:      l.IOBytes(),
			Seconds: sec,
		})
		pred.Seconds += sec
	}
	if pred.Seconds > 0 {
		pred.FPS = 1 / pred.Seconds
	}
	return pred
}

// String renders the prediction breakdown as a table.
func (pr Prediction) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s\n", pr.Network, pr.Platform)
	fmt.Fprintf(&b, "%-24s %10s %10s %10s\n", "layer", "MFLOPs", "weightsKB", "ms")
	for _, l := range pr.Layers {
		fmt.Fprintf(&b, "%-24s %10.1f %10.1f %10.2f\n",
			l.Name, float64(l.FLOPs)/1e6, float64(l.Weights)/1024, l.Seconds*1e3)
	}
	fmt.Fprintf(&b, "total %.1f ms → %.2f FPS\n", pr.Seconds*1e3, pr.FPS)
	return b.String()
}
