package quant_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cfg"
	"repro/internal/models"
	"repro/internal/network"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// quarterDroNet builds the quarter-scale DroNet at size² (64² is the low
// route of `-models low=dronet:64:int8:150` with `-scale 0.25`, 96² the model
// of `dronet-serve -scale 0.25 -size 96`) and its int8 model, calibrated on
// two random images.
func quarterDroNet(tb testing.TB, size int) (fp, q *network.Network) {
	tb.Helper()
	text, err := models.Cfg(models.DroNet, size)
	if err != nil {
		tb.Fatal(err)
	}
	if text, err = models.Scale(text, 0.25); err != nil {
		tb.Fatal(err)
	}
	def, err := cfg.ParseString(text)
	if err != nil {
		tb.Fatal(err)
	}
	fp, _, err = cfg.Build("dronet-x0.25", def, tensor.NewRNG(1))
	if err != nil {
		tb.Fatal(err)
	}
	calib := []*tensor.Tensor{tensor.New(1, 3, size, size), tensor.New(1, 3, size, size)}
	for i, c := range calib {
		tensor.NewRNG(uint64(10+i)).FillUniform(c.Data, 0, 1)
	}
	if q, err = quant.Quantize(fp, calib); err != nil {
		tb.Fatal(err)
	}
	return fp, q
}

// layerTimer runs a network's inference one layer at a time, each layer's
// Infer into its own output over one scratch arena, summing each layer's
// wall time.
type layerTimer struct {
	net   *network.Network
	outs  []*tensor.Tensor
	arena tensor.Arena
	ns    []time.Duration
}

func newLayerTimer(net *network.Network, batch int) *layerTimer {
	lt := &layerTimer{net: net, outs: make([]*tensor.Tensor, len(net.Layers)), ns: make([]time.Duration, len(net.Layers))}
	for i, l := range net.Layers {
		s := l.OutShape()
		lt.outs[i] = tensor.New(batch, s.C, s.H, s.W)
	}
	return lt
}

func (lt *layerTimer) forward(x *tensor.Tensor) {
	for i, l := range lt.net.Layers {
		t0 := time.Now()
		lt.arena.Reset()
		l.Infer(x, lt.outs[i], &lt.arena)
		lt.ns[i] += time.Since(t0)
		x = lt.outs[i]
	}
}

// BenchmarkForwardDroNet runs the quarter-scale DroNet as fp32 and as int8
// on the same single image, layer by layer, at 64² (the routed low model)
// and 96² (the model detect-ingest, sharded and stream serve), and logs a
// per-layer µs table of the two: the int8 route's cost next to the fp32
// forward it stands in for. Layer by layer, no step is fused, so it also
// times the fp32 image through Network.Forward, whose plan runs each conv
// and its 2×2/2 pool as one step (fp32-net-µs/img). Run it with
//
//	go test -run '^$' -v -bench ForwardDroNet -benchtime 2000x -cpu 1 ./internal/quant
func BenchmarkForwardDroNet(b *testing.B) {
	for _, size := range []int{64, 96} {
		b.Run(fmt.Sprint(size), func(b *testing.B) { benchForwardLayers(b, size) })
	}
}

func benchForwardLayers(b *testing.B, size int) {
	fp, q := quarterDroNet(b, size)
	x := tensor.New(1, 3, size, size)
	tensor.NewRNG(3).FillUniform(x.Data, 0, 1)
	tf, tq := newLayerTimer(fp, x.N), newLayerTimer(q, x.N)
	net := fp.CloneForInference()
	tf.forward(x) // warm-up: arenas, slabs, GEMM pools
	tq.forward(x)
	net.ForwardBatch(x)
	clear(tf.ns)
	clear(tq.ns)
	var tn time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tf.forward(x)
		tq.forward(x)
		t0 := time.Now()
		net.ForwardBatch(x)
		tn += time.Since(t0)
	}
	b.StopTimer()

	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(b.N) }
	var sb strings.Builder
	fmt.Fprintf(&sb, "\n%-3s %-27s %-12s %9s %9s %7s\n", "#", "fp32 layer", "out", "fp32 µs", "int8 µs", "ratio")
	var sf, sq time.Duration
	for i, l := range fp.Layers {
		o := l.OutShape()
		f, qd := us(tf.ns[i]), us(tq.ns[i])
		fmt.Fprintf(&sb, "%-3d %-27s %-12s %9.1f %9.1f %7.2f\n", i, l.Name(),
			fmt.Sprintf("%dx%dx%d", o.C, o.H, o.W), f, qd, qd/f)
		sf += tf.ns[i]
		sq += tq.ns[i]
	}
	fmt.Fprintf(&sb, "%-3s %-27s %-12s %9.1f %9.1f %7.2f\n", "", "total", "", us(sf), us(sq), us(sq)/us(sf))
	fmt.Fprintf(&sb, "%-3s %-27s %-12s %9.1f", "", "fp32 Network.Forward", "", us(tn))
	b.Log(sb.String())
	b.ReportMetric(us(sf), "fp32-µs/img")
	b.ReportMetric(us(tn), "fp32-net-µs/img")
	b.ReportMetric(us(sq), "int8-µs/img")
	b.ReportMetric(us(sq)/us(sf), "int8/fp32")
}
