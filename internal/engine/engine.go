// Package engine is the replica pool behind the serving subsystem
// (internal/serve): one set of layers, a fixed pool of Config.Workers
// replicas, created in New, that run them over inference memory of their
// own (network.Network.CloneForInference), and ExecuteBatch, which runs a
// dynamic micro-batch of images as one batched Forward on the replica of
// worker id 0..Workers-1. It is the one way this repository runs a model —
// the paper's single-camera §IV.B loop scaled to concurrent requests.
//
// It keeps no statistics: the serving pool that drives it times its calls.
//
// The engine is precision-agnostic: a network's convolutions are float32
// layers.Conv2D or int8 quant.QConv, and the same replica pool serves either
// without the layers above noticing.
package engine

import (
	"fmt"
	"sync"

	"repro/internal/detect"
	"repro/internal/faults"
	"repro/internal/imgproc"
	"repro/internal/layers"
	"repro/internal/network"
	"repro/internal/pipeline"
)

// Config tunes a replica pool.
type Config struct {
	// Workers is the worker-pool size; each worker owns one network replica.
	// Values < 1 default to 1.
	Workers int
	// Thresh and NMSThresh are the decode and suppression thresholds
	// (pipeline.BatchRunner defaults apply when zero).
	Thresh, NMSThresh float64
	// AltitudeFilter, when non-nil, applies the §III.D size gating with each
	// image's altitude.
	AltitudeFilter *detect.AltitudeFilter
}

// Engine is a pool of model replicas over one set of layers that executes
// micro-batches for the serving subsystem (internal/serve). ExecuteBatch
// calls for the same worker id must not overlap; distinct worker ids may
// execute batches concurrently — that is the whole point of the pool.
type Engine struct {
	base *network.Network
	cfg  Config

	// runners holds one replica per worker id; Free sets it to nil. mu
	// orders Free against WorkspaceBytes scrapes; ExecuteBatch reads it
	// unlocked, since Free's caller has quiesced the pool.
	mu      sync.Mutex
	runners []*pipeline.BatchRunner
}

// New creates an engine around a base network of either precision, with
// one worker replica per Config.Workers. A replica holds no memory until
// its first batch, so the pool costs nothing up front. The base is never
// mutated; every worker replica runs its layers, so training it while
// batches are in flight is not safe.
func New(m *network.Network, cfg Config) (*Engine, error) {
	if m == nil {
		return nil, fmt.Errorf("engine: nil model")
	}
	// Reject a headless model here rather than erroring on every DetectBatch.
	if m.Region() == nil {
		return nil, fmt.Errorf("engine: model must end in a region layer")
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	runners := make([]*pipeline.BatchRunner, cfg.Workers)
	for id := range runners {
		runners[id] = &pipeline.BatchRunner{
			Net:            m.CloneForInference(),
			Thresh:         cfg.Thresh,
			NMSThresh:      cfg.NMSThresh,
			AltitudeFilter: cfg.AltitudeFilter,
		}
	}
	return &Engine{base: m, cfg: cfg, runners: runners}, nil
}

// Workers returns the configured worker-pool size.
func (e *Engine) Workers() int { return e.cfg.Workers }

// Free releases every pooled replica (and with them their activation slabs
// and arenas) so a drained, retired pool returns its steady-state memory to the
// GC. The caller must have quiesced the pool: no ExecuteBatch may be
// in flight, and one that arrives afterwards returns an error. Retiring a
// model during a live swap is the intended caller (internal/serve).
func (e *Engine) Free() {
	e.mu.Lock()
	e.runners = nil
	e.mu.Unlock()
}

// WorkspaceBytes sums the inference memory of every worker replica: its
// two activation slabs and its scratch arena (network.Network.ScratchBytes).
// After warm-up this is the engine's whole steady-state transient memory —
// the quantity the zero-alloc serving path holds constant. A replica that
// never ran a batch contributes zero.
func (e *Engine) WorkspaceBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	var total int64
	for _, r := range e.runners {
		total += r.Net.ScratchBytes()
	}
	return total
}

// InShape returns the engine's per-sample input shape — the resolution the
// served model consumes, which a routed registry reports per model.
func (e *Engine) InShape() layers.Shape { return e.base.InShape() }

// WeightBytes reports the base model's resident weight footprint, including
// any pre-packed GEMM weight panels. Worker replicas run the base's layers,
// so this counts them exactly once regardless of pool size.
func (e *Engine) WeightBytes() int64 { return e.base.WeightBytes() }

// WarmBatch pre-runs one throwaway forward at the given batch size on every
// pooled worker replica, so serving starts with every replica's slabs and
// arena sized for the maximum micro-batch instead of growing them on the first live requests.
func (e *Engine) WarmBatch(batch int) {
	for _, r := range e.runners {
		r.Warm(batch)
	}
}

// ExecuteBatch runs one micro-batch of images on worker id's pooled replica
// and returns each image's detections separately (see
// pipeline.BatchRunner.Detect). Calls with distinct worker ids may run
// concurrently; calls sharing a worker id must be serialized by the caller.
// The outer result slice is that replica's workspace, valid until its next
// call (see network.Network.DetectBatch); the inner slices may be retained.
// This is the executor the serving subsystem's batch workers drive.
func (e *Engine) ExecuteBatch(id int, imgs []*imgproc.Image, altitudes []float64) ([][]detect.Detection, error) {
	if e.runners == nil {
		return nil, fmt.Errorf("engine: pool freed")
	}
	if id < 0 || id >= len(e.runners) {
		return nil, fmt.Errorf("engine: worker id %d outside pool of %d", id, len(e.runners))
	}
	// The injection site sits inside the span the serving pool times as its
	// service estimate on purpose: a chaos test arming
	// engine.execute=slow:<d> inflates the observed service time the same
	// way a genuinely slow kernel would, so the deadline-drop logic the
	// estimate feeds is exercised against the estimate it will see in life.
	if err := faults.Fire("engine.execute", ""); err != nil {
		return nil, err
	}
	return e.runners[id].Detect(imgs, altitudes)
}
