// Package engine is the replica pool behind the serving subsystem
// (internal/serve): one set of layers, a pool of worker replicas that run
// them over inference memory of their own
// (network.Network.CloneForInference), and ExecuteBatch, which runs
// a dynamic micro-batch of images as one batched Forward on one pooled
// replica. It is the one way this repository runs a model — the paper's
// single-camera §IV.B loop scaled to concurrent requests.
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

	mu        sync.Mutex              // guards lazy pool growth, workerCap and Free
	runners   []*pipeline.BatchRunner // pooled worker replicas, grown lazily
	workerCap int                     // ExecuteBatch id bound when > Workers (idle-worker lending)
}

// New creates an engine around a base network of either precision. The
// base is never mutated; every worker replica runs its layers, so training
// it while batches are in flight is not safe.
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
	return &Engine{base: m, cfg: cfg}, nil
}

// runner returns the id-th pooled worker replica, cloning the base network
// on first use; later batches reuse it, keeping its activation buffers warm.
func (e *Engine) runner(id int) *pipeline.BatchRunner {
	e.mu.Lock()
	defer e.mu.Unlock()
	for len(e.runners) <= id {
		e.runners = append(e.runners, &pipeline.BatchRunner{
			Net:            e.base.CloneForInference(),
			Thresh:         e.cfg.Thresh,
			NMSThresh:      e.cfg.NMSThresh,
			AltitudeFilter: e.cfg.AltitudeFilter,
		})
	}
	return e.runners[id]
}

// Workers returns the configured worker-pool size.
func (e *Engine) Workers() int { return e.cfg.Workers }

// SetWorkerCap raises the number of worker ids ExecuteBatch accepts beyond
// the nominal pool size — the lending hook behind the serving scheduler's
// idle-worker borrowing: a borrowed execution runs on an extra replica of
// THIS engine's model (replicas run its one set of layers and are created
// lazily on first use), so lending capacity never executes a batch on the
// wrong weights. The cap only ever grows; in-flight borrowed ids stay valid
// when fleet capacity later shrinks.
func (e *Engine) SetWorkerCap(n int) {
	e.mu.Lock()
	if n > e.workerCap {
		e.workerCap = n
	}
	e.mu.Unlock()
}

// WorkerCap returns the current ExecuteBatch id bound: the nominal pool
// size, or the raised lending cap when SetWorkerCap extended it.
func (e *Engine) WorkerCap() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.workerCap > e.cfg.Workers {
		return e.workerCap
	}
	return e.cfg.Workers
}

// Free releases every pooled replica (and with them their activation slabs
// and arenas) so a drained, retired pool returns its steady-state memory to the
// GC. The caller must have quiesced the pool: no ExecuteBatch may be
// in flight or arrive afterwards — a stale ExecuteBatch would silently
// re-instantiate a replica. Retiring a model during a live swap is the
// intended caller (internal/serve).
func (e *Engine) Free() {
	e.mu.Lock()
	e.runners = nil
	e.mu.Unlock()
}

// WorkspaceBytes sums the inference memory of every instantiated worker
// replica: its two activation slabs and its scratch arena
// (network.Network.ScratchBytes). After warm-up this is the engine's whole
// steady-state transient memory — the quantity the zero-alloc serving path
// holds constant. Replicas not yet instantiated (never used) contribute
// zero.
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
	for id := 0; id < e.cfg.Workers; id++ {
		e.runner(id).Warm(batch)
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
	if cap := e.WorkerCap(); id < 0 || id >= cap {
		return nil, fmt.Errorf("engine: worker id %d outside pool cap of %d", id, cap)
	}
	// The injection site sits inside the span the serving pool times as its
	// service estimate on purpose: a chaos test arming
	// engine.execute=slow:<d> inflates the observed service time the same
	// way a genuinely slow kernel would, so the deadline-drop logic the
	// estimate feeds is exercised against the estimate it will see in life.
	if err := faults.Fire("engine.execute", ""); err != nil {
		return nil, err
	}
	return e.runner(id).Detect(imgs, altitudes)
}
