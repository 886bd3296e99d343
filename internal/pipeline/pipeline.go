// Package pipeline simulates the on-board real-time processing loop of
// §IV.B: a camera source streams frames to the detector one at a time, and
// the runner records throughput, latency, and detection counts. A simulated
// camera generates synthetic aerial scenes at a configurable altitude, so
// the loop exercised here is the same frame-by-frame path the paper ran on
// the DJI Matrice 100's Odroid payload.
package pipeline

import (
	"context"
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/imgproc"
	"repro/internal/tensor"
)

// Frame is one camera image plus capture metadata.
type Frame struct {
	Index    int
	Image    *imgproc.Image
	Truths   []dataset.Annotation
	Altitude float64
}

// Source yields frames until exhausted.
type Source interface {
	// Next returns the next frame; ok is false when the stream ends.
	Next() (f Frame, ok bool)
}

// SimCamera is a Source producing procedurally generated aerial frames,
// standing in for the UAV's on-board camera.
type SimCamera struct {
	Config dataset.SceneConfig
	Frames int

	rng  *tensor.RNG
	next int
}

// NewSimCamera creates a deterministic simulated camera. Distinct seeds
// yield distinct frame sequences (tensor.NewRNG remaps the one degenerate
// zero seed itself), so fleets can derive per-camera seeds as base+i.
func NewSimCamera(cfg dataset.SceneConfig, frames int, seed uint64) *SimCamera {
	return &SimCamera{Config: cfg, Frames: frames, rng: tensor.NewRNG(seed)}
}

// Next implements Source.
func (s *SimCamera) Next() (Frame, bool) {
	if s.next >= s.Frames {
		return Frame{}, false
	}
	item := dataset.GenerateScene(s.Config, s.rng)
	f := Frame{Index: s.next, Image: item.Image, Truths: item.Truths, Altitude: item.Altitude}
	s.next++
	return f, true
}

// DatasetSource replays a fixed dataset as a stream.
type DatasetSource struct {
	Data *dataset.Dataset
	next int
}

// Next implements Source.
func (d *DatasetSource) Next() (Frame, bool) {
	if d.next >= d.Data.Len() {
		return Frame{}, false
	}
	it := d.Data.Items[d.next]
	f := Frame{Index: d.next, Image: it.Image, Truths: it.Truths, Altitude: it.Altitude}
	d.next++
	return f, true
}

// Runner executes the detector over a frame stream, one frame at a time:
// every frame goes through the embedded BatchRunner as a batch of one, so
// the stream loop and the serving micro-batcher share one implementation of
// threshold defaults, resize, detect and altitude gating (and one reused
// input tensor). Net is the precision-agnostic model interface, so the same
// loop drives a float32 network.Network or an INT8 quant.QNet.
type Runner struct {
	BatchRunner
	// OnFrame, when non-nil, observes each processed frame's detections.
	OnFrame func(Frame, []detect.Detection)
}

// Stats aggregates a pipeline run.
type Stats struct {
	Frames     int
	Detections int
	// WallSeconds is total processing time; FPS = Frames / WallSeconds.
	WallSeconds float64
	FPS         float64
	// MeanLatency and MaxLatency are per-frame processing times in seconds.
	MeanLatency, MaxLatency float64
}

// Run drains the source through the detector, resizing frames to the
// network input as the Darknet capture loop does.
func (r *Runner) Run(src Source) (Stats, error) {
	return r.RunContext(context.Background(), src)
}

// RunContext is Run with cancellation: the loop checks ctx between frames,
// finishing the in-flight frame before returning ctx.Err() alongside the
// stats gathered so far. This is the seam the engine and the serving layer
// use for graceful shutdown.
func (r *Runner) RunContext(ctx context.Context, src Source) (Stats, error) {
	if r.Net == nil {
		return Stats{}, fmt.Errorf("pipeline: Runner requires a model")
	}
	var st Stats
	var totalLatency float64
	for {
		if err := ctx.Err(); err != nil {
			st.finish(totalLatency)
			return st, err
		}
		f, ok := src.Next()
		if !ok {
			break
		}
		start := time.Now()
		per, err := r.Detect([]*imgproc.Image{f.Image}, []float64{f.Altitude})
		if err != nil {
			return st, err
		}
		dets := per[0]
		lat := time.Since(start).Seconds()
		totalLatency += lat
		if lat > st.MaxLatency {
			st.MaxLatency = lat
		}
		st.Frames++
		st.Detections += len(dets)
		if r.OnFrame != nil {
			r.OnFrame(f, dets)
		}
	}
	st.finish(totalLatency)
	return st, nil
}

// finish derives the rate statistics from the accumulated latency total.
func (st *Stats) finish(totalLatency float64) {
	st.WallSeconds = totalLatency
	if st.Frames > 0 {
		st.MeanLatency = totalLatency / float64(st.Frames)
	}
	if st.WallSeconds > 0 {
		st.FPS = float64(st.Frames) / st.WallSeconds
	}
}

// String formats the stats for logs.
func (s Stats) String() string {
	return fmt.Sprintf("%d frames, %d detections, %.2f FPS (mean latency %.1f ms, max %.1f ms)",
		s.Frames, s.Detections, s.FPS, s.MeanLatency*1e3, s.MaxLatency*1e3)
}
