// Package engine is the multi-stream concurrent inference engine: it fans
// many camera streams (pipeline.Source) across a pool of workers, each
// owning a weight-sharing model replica (Model.CloneForInference) and,
// optionally, a per-stream IoU tracker. One set of trained weights thus
// serves an entire camera fleet — the "heavy traffic, many scenarios"
// scaling direction on top of the paper's single-camera §IV.B loop.
//
// The engine is precision-agnostic: it operates on the network.Model
// interface, so the same replica pool serves a float32 network.Network or an
// INT8 quant.QNet without the layers above noticing.
//
// Streams are dispatched whole: a worker drains one stream before taking the
// next, so frames within a stream stay in order (tracker state remains
// per-stream) and per-stream detections are identical to a serial run of the
// same sources.
//
// The same replica pool doubles as the batch executor behind the serving
// subsystem (internal/serve): ExecuteBatch runs a dynamic micro-batch of
// images as one batched Forward on a pooled worker, and RunContext threads
// cancellation through the fleet loop for graceful shutdown.
package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/detect"
	"repro/internal/faults"
	"repro/internal/imgproc"
	"repro/internal/layers"
	"repro/internal/network"
	"repro/internal/pipeline"
	"repro/internal/tracking"
)

// Config tunes a fleet run.
type Config struct {
	// Workers is the worker-pool size; each worker owns one network replica.
	// Values < 1 default to 1; the pool is clamped to the stream count.
	Workers int
	// ShardID labels the process this engine runs in for fleet-wide
	// attribution: FleetStats carries it, so when several dronet-serve or
	// dronet-fleet processes report into one aggregator the numbers stay
	// traceable to the shard that produced them. Empty means unlabelled
	// (single-process deployment).
	ShardID string
	// Thresh and NMSThresh are the decode and suppression thresholds
	// (pipeline.BatchRunner defaults apply when zero).
	Thresh, NMSThresh float64
	// AltitudeFilter, when non-nil, applies the §III.D size gating with each
	// frame's altitude on every stream.
	AltitudeFilter *detect.AltitudeFilter
	// Track enables a per-stream IoU tracker, counting unique vehicles per
	// stream; TrackerConfig tunes it (zero value = tracking defaults).
	Track         bool
	TrackerConfig tracking.Config
	// OnFrame, when non-nil, observes every processed frame. Frames of one
	// stream arrive in order from a single worker, but different streams
	// call concurrently — the callback must be safe for cross-stream
	// concurrent use.
	OnFrame func(stream int, f pipeline.Frame, dets []detect.Detection)
}

// StreamStats reports one stream's run.
type StreamStats struct {
	// Stream is the index into the sources slice; Worker the pool worker
	// that processed it.
	Stream, Worker int
	pipeline.Stats
	// UniqueVehicles is the tracker's confirmed-track total for this stream
	// (0 when tracking is disabled).
	UniqueVehicles int
}

// FleetStats aggregates a whole fleet run.
type FleetStats struct {
	// ShardID is the owning process's shard label (Config.ShardID), carried
	// on the stats so multi-process rollups stay per-shard attributable.
	ShardID string
	Streams []StreamStats
	// Workers is the number of pool workers that actually ran.
	Workers int
	// Frames, Detections and UniqueVehicles sum over all streams.
	Frames, Detections, UniqueVehicles int
	// WallSeconds is the end-to-end wall-clock time of the run;
	// AggregateFPS = Frames / WallSeconds, the fleet-wide throughput.
	WallSeconds  float64
	AggregateFPS float64
	// MeanLatency and MaxLatency are per-frame processing times in seconds
	// across every stream.
	MeanLatency, MaxLatency float64
}

// Engine runs a detector over many streams concurrently, and doubles as the
// batch executor behind the serving subsystem (internal/serve): each pooled
// worker replica can execute whole-stream jobs (Run) or micro-batch jobs
// (ExecuteBatch). An Engine is reusable but not reentrant per worker:
// successive Run calls reuse the worker replicas (and their warmed
// activation buffers), so only one Run may be in flight at a time, and
// ExecuteBatch calls for the same worker id must not overlap Run or each
// other. Distinct worker ids may execute batches concurrently — that is the
// whole point of the pool.
type Engine struct {
	base network.Model
	cfg  Config

	mu        sync.Mutex         // guards lazy pool growth, workerCap and Free
	runners   []*pipeline.Runner // pooled worker replicas, grown lazily
	workerCap int                // ExecuteBatch id bound when > Workers (idle-worker lending)

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
// base is never mutated by Run; workers clone it for inference, so training
// it while a fleet run is in flight is not safe.
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

// Run drains every source through the worker pool and returns the aggregated
// fleet statistics. On a stream error the remaining streams still complete;
// the first error is returned alongside the stats gathered so far.
func (e *Engine) Run(sources []pipeline.Source) (FleetStats, error) {
	return e.RunContext(context.Background(), sources)
}

// RunContext is Run with cancellation: when ctx is cancelled, no further
// streams are dispatched, every worker finishes its in-flight frame and
// stops, and the stats gathered so far are returned together with the
// context error (wrapped in the first stream it interrupted).
func (e *Engine) RunContext(ctx context.Context, sources []pipeline.Source) (FleetStats, error) {
	fleet := FleetStats{ShardID: e.cfg.ShardID, Streams: make([]StreamStats, len(sources))}
	if len(sources) == 0 {
		return fleet, nil
	}
	workers := e.cfg.Workers
	if workers > len(sources) {
		workers = len(sources)
	}
	fleet.Workers = workers

	jobs := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int, runner *pipeline.Runner) {
			defer wg.Done()
			for i := range jobs {
				st, err := e.runStream(ctx, runner, i, sources[i])
				st.Worker = id
				mu.Lock()
				fleet.Streams[i] = st
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("engine: stream %d: %w", i, err)
				}
				mu.Unlock()
			}
		}(w, e.runner(w))
	}
	dispatched := 0
feed:
	for i := range sources {
		select {
		case jobs <- i:
			dispatched++
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr == nil && dispatched < len(sources) {
		// Cancellation landed between streams: no runStream was interrupted,
		// but undispatched sources were skipped — report it, or a partial
		// run would be indistinguishable from a complete one.
		firstErr = ctx.Err()
	}
	fleet.WallSeconds = time.Since(start).Seconds()

	var latSum float64
	for _, s := range fleet.Streams {
		fleet.Frames += s.Frames
		fleet.Detections += s.Detections
		fleet.UniqueVehicles += s.UniqueVehicles
		latSum += s.Stats.WallSeconds
		if s.MaxLatency > fleet.MaxLatency {
			fleet.MaxLatency = s.MaxLatency
		}
	}
	if fleet.Frames > 0 {
		fleet.MeanLatency = latSum / float64(fleet.Frames)
	}
	if fleet.WallSeconds > 0 {
		fleet.AggregateFPS = float64(fleet.Frames) / fleet.WallSeconds
	}
	return fleet, firstErr
}

// runner returns the id-th pooled worker runner, cloning the base network on
// first use; later Runs reuse it, keeping its activation buffers warm. The
// one replica serves both job kinds — whole streams through Runner.RunContext
// and micro-batches through its embedded BatchRunner — which is safe because
// a worker executes either a stream job or a batch job at any moment, never
// both.
func (e *Engine) runner(id int) *pipeline.Runner {
	e.mu.Lock()
	defer e.mu.Unlock()
	for len(e.runners) <= id {
		e.runners = append(e.runners, &pipeline.Runner{BatchRunner: pipeline.BatchRunner{
			Net:            e.base.CloneForInference(),
			Thresh:         e.cfg.Thresh,
			NMSThresh:      e.cfg.NMSThresh,
			AltitudeFilter: e.cfg.AltitudeFilter,
		}})
	}
	return e.runners[id]
}

// Workers returns the configured worker-pool size.
func (e *Engine) Workers() int { return e.cfg.Workers }

// ShardID returns the process shard label this engine was configured with
// ("" when unlabelled).
func (e *Engine) ShardID() string { return e.cfg.ShardID }

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
// GC. The caller must have quiesced the pool: no Run or ExecuteBatch may be
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
// concurrently; calls sharing a worker id must be serialized by the caller,
// as must ExecuteBatch against a concurrent Run. This is the executor the
// serving subsystem's batch workers drive.
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

// runStream processes one whole stream on the worker's runner, attaching a
// fresh tracker when tracking is enabled.
func (e *Engine) runStream(ctx context.Context, runner *pipeline.Runner, idx int, src pipeline.Source) (StreamStats, error) {
	st := StreamStats{Stream: idx}
	var tracker *tracking.Tracker
	if e.cfg.Track {
		tracker = tracking.New(e.cfg.TrackerConfig)
	}
	runner.OnFrame = func(f pipeline.Frame, dets []detect.Detection) {
		if tracker != nil {
			tracker.Update(dets)
		}
		if e.cfg.OnFrame != nil {
			e.cfg.OnFrame(idx, f, dets)
		}
	}
	stats, err := runner.RunContext(ctx, src)
	runner.OnFrame = nil // don't retain the stream's tracker via the closure
	st.Stats = stats
	if tracker != nil {
		st.UniqueVehicles = tracker.TotalConfirmed
	}
	return st, err
}

// String formats the fleet stats for logs: the aggregate line followed by
// one line per stream.
func (f FleetStats) String() string {
	var b strings.Builder
	if f.ShardID != "" {
		fmt.Fprintf(&b, "[%s] ", f.ShardID)
	}
	fmt.Fprintf(&b, "fleet: %d streams on %d workers, %d frames, %d detections, %.2f FPS aggregate (wall %.2f s, mean latency %.1f ms, max %.1f ms)",
		len(f.Streams), f.Workers, f.Frames, f.Detections, f.AggregateFPS, f.WallSeconds, f.MeanLatency*1e3, f.MaxLatency*1e3)
	for _, s := range f.Streams {
		fmt.Fprintf(&b, "\n  stream %d (worker %d): %s", s.Stream, s.Worker, s.Stats)
		if s.UniqueVehicles > 0 {
			fmt.Fprintf(&b, ", %d unique vehicles", s.UniqueVehicles)
		}
	}
	return b.String()
}
