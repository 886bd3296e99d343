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

// stepTimer times each step of a network's compiled plan through
// ForwardSteps: ns[lo] sums the wall time of the step that runs layers
// [lo, end[lo]). Each step pays two clock reads, so its own bookkeeping
// stays outside the next step's time.
type stepTimer struct {
	ns  []time.Duration
	end []int
	t0  time.Time
}

func newStepTimer(net *network.Network) *stepTimer {
	return &stepTimer{ns: make([]time.Duration, len(net.Layers)), end: make([]int, len(net.Layers))}
}

func (st *stepTimer) after(lo, hi int, _ *tensor.Tensor) {
	st.ns[lo] += time.Since(st.t0)
	st.end[lo] = hi
	st.t0 = time.Now()
}

// BenchmarkForwardDroNet runs the quarter-scale DroNet as fp32 and as int8
// on the same single image through the compiled plan (ForwardSteps), at 64²
// (the routed low model) and 96² (the model detect-ingest, sharded and
// stream serve), and logs a per-step µs table: one row per fp32 step — a
// conv and its 2×2/2 pool are one step — beside the int8 time of the same
// layers (int8 fuses no pool). Run it with
//
//	go test -run '^$' -v -bench ForwardDroNet -benchtime 2000x -cpu 1 ./internal/quant
func BenchmarkForwardDroNet(b *testing.B) {
	for _, size := range []int{64, 96} {
		b.Run(fmt.Sprint(size), func(b *testing.B) { benchForwardSteps(b, size) })
	}
}

func benchForwardSteps(b *testing.B, size int) {
	fp, q := quarterDroNet(b, size)
	x := tensor.New(1, 3, size, size)
	tensor.NewRNG(3).FillUniform(x.Data, 0, 1)
	tf, tq := newStepTimer(fp), newStepTimer(q)
	af, aq := tf.after, tq.after
	fp.ForwardSteps(x, af) // warm-up: arenas, slabs, GEMM pools
	q.ForwardSteps(x, aq)
	clear(tf.ns)
	clear(tq.ns)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tf.t0 = time.Now()
		fp.ForwardSteps(x, af)
		tq.t0 = time.Now()
		q.ForwardSteps(x, aq)
	}
	b.StopTimer()

	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(b.N) }
	var sb strings.Builder
	fmt.Fprintf(&sb, "\n%-5s %-40s %-12s %9s %9s %7s\n", "#", "fp32 step", "out", "fp32 µs", "int8 µs", "ratio")
	var sf, sq time.Duration
	for lo, hi := range tf.end {
		if hi == 0 {
			continue
		}
		names := make([]string, 0, hi-lo)
		var dq time.Duration
		for i := lo; i < hi; i++ {
			names = append(names, fp.Layers[i].Name())
			dq += tq.ns[i]
		}
		o := fp.Layers[hi-1].OutShape()
		f, qd := us(tf.ns[lo]), us(dq)
		fmt.Fprintf(&sb, "%-5s %-40s %-12s %9.1f %9.1f %7.2f\n", stepIndex(lo, hi), strings.Join(names, " + "),
			fmt.Sprintf("%dx%dx%d", o.C, o.H, o.W), f, qd, qd/f)
		sf += tf.ns[lo]
		sq += dq
	}
	fmt.Fprintf(&sb, "%-5s %-40s %-12s %9.1f %9.1f %7.2f", "", "total", "", us(sf), us(sq), us(sq)/us(sf))
	b.Log(sb.String())
	b.ReportMetric(us(sf), "fp32-µs/img")
	b.ReportMetric(us(sq), "int8-µs/img")
	b.ReportMetric(us(sq)/us(sf), "int8/fp32")
}

// stepIndex labels a step by its layers: "3" or "0-1".
func stepIndex(lo, hi int) string {
	if hi-lo == 1 {
		return fmt.Sprint(lo)
	}
	return fmt.Sprintf("%d-%d", lo, hi-1)
}
