// Package engine is the replica pool behind the serving subsystem
// (internal/serve): one set of weights, a pool of weight-sharing worker
// replicas (Model.CloneForInference), and ExecuteBatch, which runs a dynamic
// micro-batch of images as one batched Forward on one pooled replica. It is
// the one way this repository runs a model — the paper's single-camera
// §IV.B loop scaled to concurrent requests.
//
// The engine is precision-agnostic: it operates on the network.Model
// interface, so the same replica pool serves a float32 network.Network or an
// INT8 quant.QNet without the layers above noticing.
package engine

import (
	"fmt"
	"sort"
	"sync"
	"time"

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

// Engine is a pool of weight-sharing model replicas that executes
// micro-batches for the serving subsystem (internal/serve). ExecuteBatch
// calls for the same worker id must not overlap; distinct worker ids may
// execute batches concurrently — that is the whole point of the pool.
type Engine struct {
	base network.Model
	cfg  Config

	mu        sync.Mutex              // guards lazy pool growth, workerCap and Free
	runners   []*pipeline.BatchRunner // pooled worker replicas, grown lazily
	workerCap int                     // ExecuteBatch id bound when > Workers (idle-worker lending)

	// Service-time estimate: a ring of recent ExecuteBatch wall durations
	// feeding ServiceP50 — the "can this request still make its deadline"
	// input the serving batcher consults before spending a kernel on it.
	svcMu    sync.Mutex
	svcDur   [svcWindow]time.Duration
	svcNext  int
	svcCount int
}

// svcWindow is how many recent batch executions the service-time estimate
// remembers: enough to smooth batch-size jitter, small enough to track a
// load shift within tens of batches.
const svcWindow = 64

// New creates an engine around a base model — a float32 *network.Network or
// any other network.Model implementation such as the INT8 *quant.QNet. The
// base is never mutated; workers clone it for inference, so training it
// while batches are in flight is not safe.
func New(m network.Model, cfg Config) (*Engine, error) {
	if m == nil {
		return nil, fmt.Errorf("engine: nil model")
	}
	// Both model implementations expose their terminal region layer; reject
	// a headless model here rather than erroring on every DetectBatch.
	if r, ok := m.(interface{ Region() *layers.Region }); ok && r.Region() == nil {
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
// THIS engine's model (replicas are weight-sharing and created lazily on
// first use), so lending capacity never executes a batch on the wrong
// weights. The cap only ever grows; in-flight borrowed ids stay valid when
// fleet capacity later shrinks.
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

// Free releases every pooled replica (and with them their workspace
// arenas) so a drained, retired pool returns its steady-state memory to the
// GC. The caller must have quiesced the pool: no ExecuteBatch may be
// in flight or arrive afterwards — a stale ExecuteBatch would silently
// re-instantiate a replica. Retiring a model during a live swap is the
// intended caller (internal/serve).
func (e *Engine) Free() {
	e.mu.Lock()
	e.runners = nil
	e.mu.Unlock()
}

// WorkspaceBytes sums the scratch-arena footprint of every instantiated
// worker replica (models expose it via an optional ScratchBytes method).
// Each replica owns exactly one grow-once arena for its transient
// per-forward scratch, so after warm-up this is the engine's steady-state
// transient memory — the quantity the zero-alloc serving path holds
// constant. Replicas not yet instantiated (never used) contribute zero.
func (e *Engine) WorkspaceBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	var total int64
	for _, r := range e.runners {
		if s, ok := r.Net.(interface{ ScratchBytes() int64 }); ok {
			total += s.ScratchBytes()
		}
	}
	return total
}

// WeightBytes reports the base model's resident weight footprint, including
// any pre-packed GEMM weight panels. Worker replicas share the base's
// parameters and packs, so this counts them exactly once regardless of pool
// size.
func (e *Engine) WeightBytes() int64 { return e.base.WeightBytes() }

// WarmBatch pre-runs one throwaway forward at the given batch size on every
// pooled worker replica, so serving starts with all workspaces sized for the
// maximum micro-batch instead of growing them on the first live requests.
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
	start := time.Now()
	// The injection site sits inside the timed span on purpose: a chaos test
	// arming engine.execute=slow:<d> inflates the observed service time the
	// same way a genuinely slow kernel would, so the deadline-drop logic the
	// estimate feeds is exercised against the estimate it will see in life.
	if err := faults.Fire("engine.execute", ""); err != nil {
		return nil, err
	}
	per, err := e.runner(id).Detect(imgs, altitudes)
	e.recordService(time.Since(start))
	return per, err
}

// recordService appends one batch-execution duration to the estimate ring.
func (e *Engine) recordService(d time.Duration) {
	e.svcMu.Lock()
	e.svcDur[e.svcNext] = d
	e.svcNext = (e.svcNext + 1) % svcWindow
	if e.svcCount < svcWindow {
		e.svcCount++
	}
	e.svcMu.Unlock()
}

// ServiceP50 returns the median wall duration of recent ExecuteBatch calls
// (0 before any batch has executed). The serving batcher compares a
// request's remaining deadline budget against it: a request that cannot
// cover even the typical batch service time is dropped before it reaches a
// kernel instead of burning GEMM time on an answer that will arrive dead.
func (e *Engine) ServiceP50() time.Duration {
	e.svcMu.Lock()
	defer e.svcMu.Unlock()
	if e.svcCount == 0 {
		return 0
	}
	window := make([]time.Duration, e.svcCount)
	copy(window, e.svcDur[:e.svcCount])
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	return window[e.svcCount/2]
}
