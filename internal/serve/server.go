package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/imgproc"
)

// Server-wide retry-budget sizing for the route re-resolve loop: a race
// with a registry mutation is rare and cheap, so the bucket is generous —
// its purpose is bounding pathological churn, not taxing healthy traffic.
const (
	serverRetryBudget = 64
	serverRetryRefill = 0.1
)

// Config tunes one hosted model's micro-batching. The zero value of every
// knob selects a sensible default (see the field comments); Workers comes
// from the model's engine pool.
//
// There is no batching timer: a request goes to an idle worker the moment
// the batcher reaches it, and a batch grows only while every worker is
// busy (see batchLoop). On the CPU kernels an 8-image batch costs about as
// much as eight single images (8.0× at quarter scale, 8.2× at paper scale
// on a 2-CPU x86 box), so holding a request back for batch-mates would buy
// no throughput, only latency.
type Config struct {
	// MaxBatch is the largest micro-batch one worker executes in a single
	// batched Forward. Default 8.
	MaxBatch int
	// QueueDepth is the admission queue bound; a request arriving to a full
	// queue is rejected with HTTP 429 immediately. Default 8*MaxBatch.
	QueueDepth int
	// Warm, when true, runs one throwaway MaxBatch-sized forward per worker
	// replica at startup so first-request latency excludes workspace
	// allocation.
	Warm bool
	// Precision labels the numeric path of the model ("fp32" or "int8") on
	// /healthz and /metrics. Purely informational — the engine already
	// encapsulates the actual model — and defaults to "fp32".
	Precision string
}

// brownoutEnter and brownoutExit are the degradation watermarks as
// fractions of the queue capacity, active only on a model with a declared
// degrade sibling (ModelEntry.Degrade): queue depth at or above
// ceil(brownoutEnter*cap) enters brownout (implicitly-routed requests are
// served by the cheaper sibling), depth at or below brownoutExit*cap leaves
// it. The gap between the two is the hysteresis band that keeps the
// downgrade from flapping.
const (
	brownoutEnter = 0.75
	brownoutExit  = 0.25
)

// withDefaults normalizes the zero-value knobs.
func (c Config) withDefaults() Config {
	if c.MaxBatch < 1 {
		c.MaxBatch = 8
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 8 * c.MaxBatch
	}
	if c.Precision == "" {
		c.Precision = "fp32"
	}
	return c
}

// ErrOverloaded is returned by submit when the admission queue is full; the
// HTTP layer maps it to 429 Too Many Requests.
var ErrOverloaded = errors.New("serve: admission queue full")

// ErrClosed is returned after Close/Shutdown has begun; the HTTP layer maps
// it to 503 Service Unavailable.
var ErrClosed = errors.New("serve: server is shutting down")

// Lifecycle sentinels for the mutable registry; the admin HTTP layer maps
// them to 404 (unknown) and 409 (duplicate, last-model) respectively.
var (
	ErrUnknownModel   = errors.New("serve: unknown model")
	ErrDuplicateModel = errors.New("serve: duplicate model name")
	ErrLastModel      = errors.New("serve: cannot remove the last hosted model")
)

// errRetired is the internal signal that a request raced a swap/remove and
// reached a pool that stopped admitting between route resolution and
// submit. It never escapes the package: the HTTP layer re-resolves the
// route against the fresh table and retries, so the caller sees the NEW
// generation, not an error.
var errRetired = errors.New("serve: pool retired")

// errCancelled is the internal signal that a request's client context was
// already done when its batch was assembled; the HTTP layer maps it to 499
// (client closed request) and /metrics counts it as cancelled_total.
var errCancelled = errors.New("serve: request context cancelled")

// errDeadline is the internal signal that a request's end-to-end deadline
// expired before (or while) the server could usefully serve it — on
// arrival, at batch assembly (remaining budget below the pool's observed
// service time), or during execution. The HTTP layer maps it to 504 and
// /metrics counts it in deadline_exceeded_total.
var errDeadline = errors.New("serve: request deadline exceeded")

// request is one admitted detection job awaiting a micro-batch slot.
type request struct {
	ctx      context.Context
	img      *imgproc.Image
	altitude float64
	enqueued time.Time
	deadline time.Time // zero = no deadline
	resp     chan response
}

// response carries one request's result back from the batch worker.
type response struct {
	dets  []detect.Detection
	batch int // micro-batch size this request rode in
	err   error
}

// hosted is one registered model's complete serving pipeline: a private
// admission queue, a batcher goroutine coalescing it into micro-batches,
// one batch worker per engine pool worker, and per-model metrics. Every
// hosted model runs these independently, so a slow large-input model can
// saturate (and 429) without stalling its faster neighbours.
//
// A hosted is immutable after start; swapping a model's weights creates a
// NEW hosted (fresh engine pool, fresh generation, carried-over metrics)
// and retires this one. gen is the server-unique generation tag clients
// see on responses, the proof a result was computed by the pool they think
// it was.
type hosted struct {
	name    string
	eng     *engine.Engine
	cfg     Config
	met     *metrics // links up to the server-wide aggregate
	sched   *scheduler
	maxAlt  float64
	weight  float64
	degrade string // brownout sibling route name ("" = never degrade)
	gen     uint64

	// brownout is the hysteresis latch of the degradation watermark: set
	// when queue depth crosses the enter threshold, cleared only when it
	// falls below the lower exit threshold, so the downgrade decision
	// cannot flap on every queue-length wiggle.
	brownout atomic.Bool

	// svc times this pool's last 32–64 successful batch executions, the
	// deadline yardstick (see serviceMedian).
	svcMu sync.Mutex
	svc   latencyHist

	// queue is the bounded admission queue (capacity cfg.QueueDepth, the
	// 429 threshold); the batcher drains it into batches.
	queue   chan *request
	batches chan []*request

	// retired is written under the server's admitMu write lock alongside
	// close(queue); submit reads it under the read lock, so no sender can
	// race the close.
	retired bool

	workerWG  sync.WaitGroup
	batcherWG sync.WaitGroup
	execWG    sync.WaitGroup // borrowed one-shot batch executions
}

// routeTable is one immutable snapshot of the routing state. Registry
// mutations build a fresh table and publish it with a single atomic store,
// so the request path reads a consistent view without ever taking a lock.
type routeTable struct {
	byName    map[string]*hosted
	order     []*hosted // registration order; order[0] is the default route
	def       *hosted
	altRoutes []*hosted // maxAlt > 0, ascending ceilings
	overflow  *hosted   // target above every bounded band (nil without routes)
	queueSum  int       // summed queue depths, the inflight-limit input
}

// newTable derives a routeTable from a registration-ordered pool list.
func newTable(order []*hosted) *routeTable {
	t := &routeTable{order: order, byName: make(map[string]*hosted, len(order))}
	for _, h := range order {
		t.byName[h.name] = h
		t.queueSum += cap(h.queue)
	}
	if len(order) > 0 {
		t.def = order[0]
	}
	t.altRoutes, t.overflow = buildRoutes(order)
	return t
}

// Server hosts N named models behind one set of endpoints, routing each
// request to a model (explicit ?model=/X-Model selection, else the
// altitude default route, else the default model) and coalescing the
// requests of each model into micro-batches on that model's engine pool.
//
// The registry is mutable under traffic: AddModel, SwapModel and
// RemoveModel (and the admin endpoints wrapping them, see AdminHandler)
// re-publish the routing table atomically while in-flight requests drain
// on whichever pool admitted them. Create with New (single model) or
// NewRouted, serve with ServeHTTP (it implements http.Handler), stop with
// Close or Shutdown.
type Server struct {
	mux   *http.ServeMux
	adm   *http.ServeMux
	sched *scheduler

	table atomic.Pointer[routeTable]

	fleet *metrics

	// streams is the streaming-session tier: the bounded session
	// registry, idle sweeper and drain barrier behind GET /stream (see
	// session.go). Sessions feed the same per-model queues/batchers as
	// one-shot requests — the tier adds lifecycle, not a second data path.
	streams *sessionManager

	// retry budgets the route re-resolve loop (the errRetired path): every
	// lifecycle-race retry draws a token, every completed request refills a
	// fraction of one, so pathological registry churn degrades into honest
	// 503s instead of handler goroutines spinning on a mutating table.
	retry *RetryBudget

	// inflight counts concurrently-held request bodies/images against
	// inflightLimit (twice the summed queue depth, recomputed on every
	// registry change). Decoding happens in the HTTP handler before
	// admission, so without this cap N connections could each materialize a
	// decoded image and exhaust memory before ever seeing a queue's 429;
	// with it, excess requests are shed before their body is read.
	inflight      atomic.Int64
	inflightLimit atomic.Int64

	// genCounter mints server-unique pool generations; every started pool
	// (initial, added, or swap replacement) gets the next value.
	genCounter atomic.Uint64

	// ident labels this serving PROCESS (shard id + listen address) on
	// /healthz, /metrics and every Stats snapshot, so a fleet aggregator
	// (cmd/dronet-proxy) can attribute each block to the process that
	// produced it. Set once via SetIdentity when the listener is bound;
	// atomic because scrapes may race the set.
	ident atomic.Pointer[identity]

	// adminMu serializes registry mutations (AddModel/SwapModel/RemoveModel/
	// Close). The request path never takes it.
	adminMu sync.Mutex

	// admitMu write-fences queue closes against in-flight submits: submit
	// holds the read lock across its channel send, retirement holds the
	// write lock while marking the pool retired and closing its queue.
	admitMu sync.RWMutex
	closed  bool

	builderMu sync.RWMutex
	builder   ModelBuilder

	closeOnce sync.Once
}

// New starts a single-model server — the pre-registry constructor, kept as
// the one-liner for the common case. The model is registered under the
// route name "default".
func New(eng *engine.Engine, cfg Config) (*Server, error) {
	return NewRouted([]ModelEntry{{Name: "default", Engine: eng, Config: cfg}})
}

// NewRouted starts a routed multi-model server: one admission queue,
// batcher and worker set per entry, all behind the shared endpoints. The
// first entry is the default route. Each entry's engine must not execute
// batches for anyone else while the server is live — the server owns its
// worker ids.
func NewRouted(entries []ModelEntry) (*Server, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("serve: no models to host")
	}
	s := &Server{
		sched: newScheduler(),
		fleet: newMetrics(),
		retry: NewRetryBudget(serverRetryBudget, serverRetryRefill),
	}
	s.streams = newSessionManager(s)
	s.table.Store(newTable(nil))
	for _, e := range entries {
		if _, err := s.AddModel(e); err != nil {
			s.Close()
			return nil, err
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/detect", s.handleDetectJSON)
	s.mux.HandleFunc("/detect/raw", s.handleDetectRaw)
	s.mux.HandleFunc("/stream", s.handleStream)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// identity is the process-level shard label (see SetIdentity).
type identity struct {
	shardID string
	addr    string
}

// SetIdentity labels this serving process for fleet-wide aggregation: the
// shard id and listen address appear on /healthz, /metrics and every Stats
// snapshot, so when several dronet-serve processes sit behind one
// dronet-proxy the merged output stays attributable per process. Call it
// once the listener is bound (the address is not known earlier); safe under
// concurrent scrapes.
func (s *Server) SetIdentity(shardID, addr string) {
	s.ident.Store(&identity{shardID: shardID, addr: addr})
}

// Identity returns the process labels set by SetIdentity ("" before it is
// called).
func (s *Server) Identity() (shardID, addr string) {
	if id := s.ident.Load(); id != nil {
		return id.shardID, id.addr
	}
	return "", ""
}

// stamp labels one Stats snapshot with the process identity.
func (s *Server) stamp(st *Stats) {
	st.ShardID, st.Addr = s.Identity()
}

// Models returns the hosted model names in registration order; the first is
// the default route.
func (s *Server) Models() []string {
	t := s.table.Load()
	out := make([]string, len(t.order))
	for i, h := range t.order {
		out[i] = h.name
	}
	return out
}

// startHosted validates an entry, mints a generation, and spins up the
// pool's batcher and workers. met is the carried-over metrics object on a
// swap (continuity of counters across generations of the same route name)
// or nil for a brand-new route.
func (s *Server) startHosted(e ModelEntry, met *metrics) (*hosted, error) {
	if e.Engine == nil {
		return nil, fmt.Errorf("serve: model %q: nil engine", e.Name)
	}
	if e.Engine.Workers() < 1 {
		return nil, fmt.Errorf("serve: model %q: engine has no workers", e.Name)
	}
	if e.Name == "" {
		return nil, fmt.Errorf("serve: model entry needs a name")
	}
	cfg := e.Config.withDefaults()
	weight := e.Weight
	if weight <= 0 {
		weight = 1
	}
	if met == nil {
		met = newMetrics()
		met.up = s.fleet
	}
	h := &hosted{
		name:    e.Name,
		eng:     e.Engine,
		cfg:     cfg,
		met:     met,
		sched:   s.sched,
		maxAlt:  e.MaxAltitude,
		weight:  weight,
		degrade: e.Degrade,
		gen:     s.genCounter.Add(1),
		queue:   make(chan *request, cfg.QueueDepth),
		batches: make(chan []*request),
		svc:     latencyHist{half: 32},
	}
	if cfg.Warm {
		h.eng.WarmBatch(cfg.MaxBatch)
	}
	s.sched.register(h)
	h.batcherWG.Add(1)
	go h.batchLoop()
	for id := 0; id < h.eng.Workers(); id++ {
		h.workerWG.Add(1)
		go h.workerLoop(id)
	}
	return h, nil
}

// install publishes a new routing table and recomputes the inflight cap.
// Callers hold adminMu.
func (s *Server) install(order []*hosted) {
	t := newTable(order)
	s.table.Store(t)
	s.inflightLimit.Store(int64(2 * t.queueSum))
}

// isClosed reports whether Close has begun. Callers hold adminMu (so the
// answer cannot change under them).
func (s *Server) isClosed() bool {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	return s.closed
}

// AddModel registers and starts a new hosted model under live traffic,
// returning its generation tag. The new pool participates in routing (and
// idle-worker lending) from the moment the fresh table is published; no
// in-flight request is disturbed. Fails with ErrDuplicateModel if the route
// name is taken.
func (s *Server) AddModel(e ModelEntry) (uint64, error) {
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	if s.isClosed() {
		return 0, ErrClosed
	}
	t := s.table.Load()
	if _, dup := t.byName[e.Name]; dup {
		return 0, fmt.Errorf("%w: %q", ErrDuplicateModel, e.Name)
	}
	h, err := s.startHosted(e, nil)
	if err != nil {
		return 0, err
	}
	order := append(append([]*hosted(nil), t.order...), h)
	s.install(order)
	return h.gen, nil
}

// SwapModel atomically replaces the named model's serving pool with a new
// one (typically freshly-built weights at the same route name): the new
// pool is started off-path, the routing table is flipped in one atomic
// store, and only then is the old pool drained — every request the old
// generation admitted is answered by the old generation, every request
// resolved after the flip lands on the new one, and none are dropped.
// Returns the retired and fresh generation tags. The swapped-out engine's
// replicas are freed once its last batch completes. Metrics counters carry
// over (same route, same history); the generation tag is what changes.
func (s *Server) SwapModel(e ModelEntry) (oldGen, newGen uint64, err error) {
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	if s.isClosed() {
		return 0, 0, ErrClosed
	}
	t := s.table.Load()
	old, ok := t.byName[e.Name]
	if !ok {
		return 0, 0, fmt.Errorf("%w: %q", ErrUnknownModel, e.Name)
	}
	h, err := s.startHosted(e, old.met)
	if err != nil {
		return 0, 0, err
	}
	order := append([]*hosted(nil), t.order...)
	for i, cur := range order {
		if cur == old {
			order[i] = h
		}
	}
	s.install(order)
	s.retire(old)
	return old.gen, h.gen, nil
}

// RemoveModel drains and retires the named model's pool and drops it from
// every route. Explicit selections of the name 404 from the moment the new
// table is published; altitude/default traffic re-resolves onto the
// remaining models. Requests already admitted to the retiring pool are
// answered before RemoveModel returns. The last hosted model cannot be
// removed (ErrLastModel) — a server with nothing to route to is a worse
// failure mode than a refused delete.
func (s *Server) RemoveModel(name string) error {
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	if s.isClosed() {
		return ErrClosed
	}
	t := s.table.Load()
	h, ok := t.byName[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	if len(t.order) == 1 {
		return fmt.Errorf("%w: %q", ErrLastModel, name)
	}
	order := make([]*hosted, 0, len(t.order)-1)
	for _, cur := range t.order {
		if cur != h {
			order = append(order, cur)
		}
	}
	s.install(order)
	s.retire(h)
	return nil
}

// retire fences, drains and frees one pool that is no longer routable.
// Callers hold adminMu and have already published a table that excludes h,
// so no new resolution can reach it; the write fence catches requests that
// resolved the OLD table and are mid-submit — they get errRetired and the
// HTTP layer re-resolves. Returns only when every admitted request has been
// answered and the pool's replicas are freed.
func (s *Server) retire(h *hosted) {
	s.admitMu.Lock()
	h.retired = true
	close(h.queue)
	s.admitMu.Unlock()
	h.batcherWG.Wait()
	h.workerWG.Wait()
	h.execWG.Wait()
	s.sched.unregister(h)
	h.eng.Free()
}

// Stats returns a point-in-time snapshot of the fleet-aggregate serving
// metrics: counters summed over every hosted model, latency percentiles
// over the merged request stream, and busy time as the union of all
// models' batch-execution spans. For a single-model server this is exactly
// that model's view.
func (s *Server) Stats() Stats {
	var pools Stats // what lives on the pools rather than in s.fleet
	for _, h := range s.table.Load().order {
		pools.Merge(Stats{QueueDepth: len(h.queue), QueueCap: cap(h.queue),
			Workers: h.eng.Workers(), MaxBatch: h.cfg.MaxBatch, Precision: h.cfg.Precision})
	}
	st := s.fleet.snapshot(pools.QueueDepth, pools.QueueCap, pools.Workers, pools.MaxBatch)
	st.Precision = pools.Precision
	st.RetryBudgetTokens = s.retry.Tokens()
	st.SessionsOpen = s.streams.openCount()
	s.stamp(&st)
	return st
}

// ModelStats returns the named model's private metrics snapshot.
func (s *Server) ModelStats(name string) (Stats, bool) {
	h, ok := s.table.Load().byName[name]
	if !ok {
		return Stats{}, false
	}
	st := h.stats()
	s.stamp(&st)
	return st, true
}

// stats snapshots one hosted model's metrics with its routing labels.
func (h *hosted) stats() Stats {
	st := h.met.snapshot(len(h.queue), cap(h.queue), h.eng.Workers(), h.cfg.MaxBatch)
	st.Model = h.name
	st.Precision = h.cfg.Precision
	st.MaxAltitude = h.maxAlt
	st.Generation = h.gen
	return st
}

// Report assembles the full /metrics document: the fleet aggregate plus
// every hosted model's private snapshot.
func (s *Server) Report() MetricsReport {
	t := s.table.Load()
	rep := MetricsReport{Stats: s.Stats(), Models: make(map[string]Stats, len(t.order))}
	for _, h := range t.order {
		st := h.stats()
		s.stamp(&st)
		rep.Models[h.name] = st
	}
	return rep
}

// submit admits a request to one model's queue or rejects it without
// blocking. The read lock spans the channel send so a retiring pool's (or
// Close's) write lock can guarantee no sender is mid-flight when the queue
// closes; errRetired tells the caller its route resolution went stale.
func (s *Server) submit(h *hosted, r *request) error {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	if h.retired {
		return errRetired
	}
	select {
	case h.queue <- r:
		return nil
	default:
		return ErrOverloaded
	}
}

// maxRouteRetries bounds the re-resolve loop in infer: each retry requires
// a registry mutation to have raced this exact request, so eight
// consecutive losses means lifecycle churn is outpacing traffic — at that
// point a 503 (with the retries_exhausted_total counter) beats spinning a
// request goroutine indefinitely.
const maxRouteRetries = 8

// retryBackoffBase / retryBackoffMax bound the jittered pause between
// re-resolve attempts (see Backoff): long enough to let the racing
// registry mutation publish its table, short enough to be invisible next
// to inference time.
const (
	retryBackoffBase = time.Millisecond
	retryBackoffMax  = 50 * time.Millisecond
)

// outcome is what infer hands a transport to encode: the serving pool and
// its answer when status is 200, else the failure's status code, message
// and whether it is transient backpressure worth a Retry-After hint.
type outcome struct {
	status     int
	msg        string
	retryAfter bool

	pool     *hosted
	resp     response
	lat      time.Duration
	degraded bool
}

// infer is the one request spine behind /detect, /detect/raw and stream
// frames: resolve the route (sel.altitude doubles as the §III.D size-gate
// altitude), push the image through the routed model's micro-batcher,
// classify the result. The loop re-resolves and retries when the resolved
// pool retired between resolution and submit (a swap/remove raced this
// request) — each retry reads the freshly-published table, which is what
// turns a lifecycle race into "served by the new generation" instead of an
// error. Retries are doubly bounded: maxRouteRetries attempts per request,
// and the server-wide RetryBudget drawn one token per retry (refilled by
// successes) — either bound exhausted means 503 + Retry-After +
// retries_exhausted_total rather than goroutines spinning against
// pathological registry churn. With mayDegrade, brownout may swap an
// implicitly-routed request onto the resolved model's cheaper sibling;
// sessions pass false — a tracker fed by two different models would see
// systematically shifted boxes.
func (s *Server) infer(ctx context.Context, sel routeSel, img *imgproc.Image, deadline time.Time, mayDegrade bool) outcome {
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if attempt >= maxRouteRetries || !s.retry.Take() {
				s.fleet.retryExhausted()
				return outcome{status: http.StatusServiceUnavailable, retryAfter: true,
					msg: fmt.Sprintf("route retries exhausted after %d attempts (registry churn or retry budget drained)", attempt)}
			}
			time.Sleep(Backoff(attempt-1, retryBackoffBase, retryBackoffMax))
		}
		h, code, err := s.resolve(sel)
		if err != nil {
			return outcome{status: code, msg: err.Error()}
		}
		var degradedFrom *hosted
		if mayDegrade {
			h, degradedFrom = s.maybeDegrade(h, sel)
		}
		resp, lat, err := s.detect(ctx, h, img, sel.altitude, deadline)
		switch {
		case errors.Is(err, errRetired):
			continue
		case errors.Is(err, errCancelled):
			return outcome{status: statusClientClosedRequest, msg: "client closed request before batch assembly"}
		case errors.Is(err, errDeadline):
			return outcome{status: http.StatusGatewayTimeout, msg: "deadline exceeded before the result could be served"}
		case errors.Is(err, ErrOverloaded):
			return outcome{status: http.StatusTooManyRequests, retryAfter: true, msg: "server overloaded: admission queue full"}
		case errors.Is(err, ErrClosed):
			return outcome{status: http.StatusServiceUnavailable, msg: "server shutting down"}
		case err != nil:
			return outcome{status: http.StatusInternalServerError, msg: err.Error()}
		case resp.err != nil:
			return outcome{status: http.StatusInternalServerError, msg: "inference: " + resp.err.Error()}
		}
		s.retry.Success()
		if degradedFrom != nil {
			// Counted at completion, on the model that shed the work — a
			// degraded request that ends up 429'd by the sibling is that
			// sibling's rejection, not a successful degradation.
			degradedFrom.met.degrade()
		}
		return outcome{status: http.StatusOK, pool: h, resp: resp, lat: lat, degraded: degradedFrom != nil}
	}
}

// detect runs one image through a model's micro-batching path end to end,
// blocking until its batch executes. On a rejection the request — and with
// it the decoded frame — is never retained: it was not enqueued, so the
// only reference dies with this stack frame (the admission-path guarantee
// behind the inflight cap's memory bound). An errRetired return is
// metrics-silent: the caller re-resolves and the retry is the admission
// attempt that counts. deadline (zero = none) is the request's absolute
// end-to-end deadline: expired on arrival ⇒ rejected here with errDeadline
// (504) before touching the queue; expired after execution ⇒ the result is
// discarded as errDeadline too, because a detection delivered past its
// frame deadline is indistinguishable from a failure to the caller.
func (s *Server) detect(ctx context.Context, h *hosted, img *imgproc.Image, altitude float64, deadline time.Time) (response, time.Duration, error) {
	if err := faults.Fire("serve.queue", h.name); err != nil {
		h.met.admit()
		h.met.reject()
		return response{}, 0, fmt.Errorf("admission fault: %w", err)
	}
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		h.met.admit()
		h.met.deadlineExceeded()
		return response{}, 0, errDeadline
	}
	req := &request{ctx: ctx, img: img, altitude: altitude, enqueued: time.Now(), deadline: deadline, resp: make(chan response, 1)}
	if err := s.submit(h, req); err != nil {
		if errors.Is(err, errRetired) {
			return response{}, 0, err
		}
		h.met.admit()
		h.met.reject()
		return response{}, 0, err
	}
	h.met.admit()
	resp := <-req.resp
	if errors.Is(resp.err, errCancelled) || errors.Is(resp.err, errDeadline) {
		// Dropped at batch assembly — the client had hung up, or the
		// remaining budget could not cover the pool's service time — and
		// already counted there (cancelled_total / deadline_exceeded_total).
		// Not a completion, not a failure: by construction no kernel ran.
		return response{}, 0, resp.err
	}
	lat := time.Since(req.enqueued)
	if resp.err == nil && !deadline.IsZero() && !time.Now().Before(deadline) {
		// The batch executed but the answer is late. Count the breach AND a
		// failed completion: the request did consume kernel time (it is in
		// the batch histogram), so completed+failed must still account for
		// it — that bookkeeping identity is what lets the chaos suite prove
		// dropped-expired work never reached a kernel.
		h.met.deadlineExceeded()
		h.met.done(lat, false)
		return response{}, lat, errDeadline
	}
	h.met.done(lat, resp.err == nil)
	return resp, lat, nil
}

// cancelled reports whether the request's client context is already done —
// the batch-assembly drop test. A nil context (internal callers) never
// cancels.
func (r *request) cancelled() bool {
	if r.ctx == nil {
		return false
	}
	select {
	case <-r.ctx.Done():
		return true
	default:
		return false
	}
}

// drop answers a cancelled request without spending a batch slot on it.
func (h *hosted) drop(r *request) {
	h.met.cancel()
	r.img = nil
	r.resp <- response{err: errCancelled}
}

// doomed reports whether a deadlined request cannot make it anymore: its
// remaining budget is below the pool's observed median batch service time
// (or already negative). svc is resolved once per assembly pass by the
// batcher — the estimate moves on batch granularity, not per-request.
func (r *request) doomed(svc time.Duration) bool {
	if r.deadline.IsZero() {
		return false
	}
	return time.Until(r.deadline) < svc
}

// dropExpired answers a deadline-doomed request at batch assembly, before
// any kernel time is spent on it. Counted in deadline_exceeded_total (the
// same counter as on-arrival and post-execution breaches), NOT in
// completed/failed — only executed requests appear there, which is the
// invariant the chaos suite pins expired-work-never-reaches-a-kernel with.
func (h *hosted) dropExpired(r *request) {
	h.met.deadlineExceeded()
	r.img = nil
	r.resp <- response{err: errDeadline}
}

// brownoutActive evaluates (and latches) this pool's degradation state.
// Entering needs queue depth at or above the enter watermark; leaving needs
// depth at or below the LOWER exit watermark, so the decision has a
// hysteresis band instead of flapping with every queue-length wiggle.
// Races between concurrent evaluators are benign: both sides converge on
// the same thresholds.
func (h *hosted) brownoutActive() bool {
	if h.degrade == "" {
		return false
	}
	depth, capacity := len(h.queue), cap(h.queue)
	enter := int(math.Ceil(brownoutEnter * float64(capacity)))
	exit := int(brownoutExit * float64(capacity))
	if h.brownout.Load() {
		if depth <= exit {
			h.brownout.Store(false)
		}
	} else if depth >= enter {
		h.brownout.Store(true)
	}
	return h.brownout.Load()
}

// maybeDegrade applies brownout degradation to an implicitly-routed
// request: when the resolved pool is browned out and declares a degrade
// sibling that is currently hosted, the request is served by the sibling
// instead. Explicit ?model= selections are never rerouted — the client
// asked for that model by name — and degradation is a single hop (the
// sibling's own brownout state is not consulted), so a chain of degrade
// declarations cannot walk a request arbitrarily far from what it asked
// for. Returns the pool to serve on and the pool degraded FROM (nil when
// not degraded).
func (s *Server) maybeDegrade(h *hosted, sel routeSel) (*hosted, *hosted) {
	if sel.explicit != "" || !h.brownoutActive() {
		return h, nil
	}
	sib, ok := s.table.Load().byName[h.degrade]
	if !ok || sib == h {
		return h, nil
	}
	return sib, h
}

// batchLoop drains one model's admission queue into batches of up to
// MaxBatch images under one work-conserving rule: a request waits only
// while every worker is busy. The batch a request starts goes to an idle
// local worker at once; while none is idle it keeps absorbing arrivals and
// races them against a worker freeing up, so batches grow with the backlog
// and a lone request on an idle pool is never held back. Requests whose
// client context is already done, or whose deadline cannot cover the
// pool's service time, are dropped AT ASSEMBLY — a dead request in a batch
// slot wastes inference on an answer nobody reads. Exits (closing the
// workers' feed) when the queue is closed and drained.
func (h *hosted) batchLoop() {
	defer h.batcherWG.Done()
	defer close(h.batches)
	for first := range h.queue {
		// svc is this assembly pass's deadline yardstick: a request whose
		// remaining budget cannot cover the pool's typical batch service
		// time would come back expired, so spend nothing on it.
		svc := h.serviceMedian()
		if h.dropDead(first, svc) {
			continue
		}
		h.dispatch(append(make([]*request, 0, h.cfg.MaxBatch), first), svc)
		h.sched.dispatched(h)
	}
}

// dropDead answers a cancelled or deadline-doomed request at assembly and
// reports whether it did.
func (h *hosted) dropDead(r *request, svc time.Duration) bool {
	switch {
	case r.cancelled():
		h.drop(r)
	case r.doomed(svc):
		h.dropExpired(r)
	default:
		return false
	}
	return true
}

// dispatch places one forming batch. h.batches is unbuffered, so the
// non-blocking send succeeds exactly when a local worker is parked at its
// receive; that probe runs before every wait, so an idle worker always
// wins over absorbing one more arrival. Failing it, a batch of two or more
// asks the scheduler for a borrowed slot (idle-worker lending) — a lone
// request does not, because a borrowed replica costs memory that one image
// does not repay. A batch that can no longer grow (full, or the queue
// closed) may borrow at any size, then blocks for a local worker. Every
// wait is a select on the next event, so a denied borrow never spins.
func (h *hosted) dispatch(batch []*request, svc time.Duration) {
	queue := h.queue
	for {
		if len(batch) == h.cfg.MaxBatch {
			queue = nil // a receive on a nil channel never fires
		}
		select {
		case h.batches <- batch:
			h.sched.beginLocal(h)
			return
		default:
		}
		if len(batch) >= 2 || queue == nil {
			if id, ok := h.sched.tryBorrow(h); ok {
				h.runBorrowed(id, batch)
				return
			}
		}
		select {
		case r, ok := <-queue:
			if !ok {
				queue = nil
			} else if !h.dropDead(r, svc) {
				batch = append(batch, r)
			}
		case h.batches <- batch:
			h.sched.beginLocal(h)
			return
		}
	}
}

// runBorrowed executes one batch on a borrowed engine replica (worker ids
// at or above the nominal pool size) in a one-shot goroutine — the direct
// handoff means the batch cannot be lost between the grant and a worker
// picking it up. Tracked by execWG so retire/Close wait for it.
func (h *hosted) runBorrowed(id int, batch []*request) {
	h.execWG.Add(1)
	go func() {
		defer h.execWG.Done()
		h.met.borrowStart()
		h.runBatch(id, batch, nil, nil)
		h.met.borrowEnd()
		h.sched.endBorrow(h, id)
	}()
}

// workerLoop executes one model's batches on this worker's pooled replica
// and fans the per-image detections back to the waiting requests. The
// batcher already counted the batch via beginLocal at handoff time (see
// scheduler.go); the worker's endLocal closes that bracket, keeping the
// fleet-occupancy counters honest without ever gating local execution on
// the scheduler.
func (h *hosted) workerLoop(id int) {
	defer h.workerWG.Done()
	imgs := make([]*imgproc.Image, 0, h.cfg.MaxBatch)
	alts := make([]float64, 0, h.cfg.MaxBatch)
	for batch := range h.batches {
		imgs, alts = h.runBatch(id, batch, imgs, alts)
		h.sched.endLocal(h)
	}
}

// runBatch is the shared batch-execution body of the strict workers and the
// borrowed one-shot executors: stage the images, run the engine replica,
// fan results back, and scrub frame references so an idle worker cannot pin
// megabytes of pixels. The staging slices are returned for reuse (the
// strict workers keep theirs across batches; borrowed executors pass nil).
func (h *hosted) runBatch(id int, batch []*request, imgs []*imgproc.Image, alts []float64) ([]*imgproc.Image, []float64) {
	if imgs == nil {
		imgs = make([]*imgproc.Image, 0, len(batch))
		alts = make([]float64, 0, len(batch))
	}
	imgs, alts = imgs[:0], alts[:0]
	for _, r := range batch {
		imgs = append(imgs, r.img)
		alts = append(alts, r.altitude)
	}
	h.met.batchStart()
	start := time.Now()
	per, err := h.executeBatch(id, imgs, alts)
	if err == nil {
		h.svcMu.Lock()
		h.svc.record(time.Since(start))
		h.svcMu.Unlock()
	}
	if ferr := faults.Fire("serve.batch", h.name); ferr != nil && err == nil {
		// An injected batcher fault fails the whole batch the way a real
		// execution error would; the requests still count as executed
		// (batch histogram + failed), keeping the kernel-accounting
		// invariant intact.
		per, err = nil, ferr
	}
	h.met.batch(len(batch))
	for i, r := range batch {
		if err != nil {
			r.resp <- response{err: err}
		} else {
			r.resp <- response{dets: per[i], batch: len(batch)}
		}
		// The response has been delivered; drop the frame reference so a
		// request object lingering anywhere cannot pin megabytes of
		// pixels.
		r.img = nil
	}
	// The staging slice may persist across batches (imgs[:0] keeps the
	// backing array): clear the slots, or the last batch's decoded frames
	// stay reachable through an idle worker indefinitely.
	for i := range imgs {
		imgs[i] = nil
	}
	return imgs, alts
}

// serviceMedian returns the median wall time of this pool's recent
// successful batch executions (0 before the first): enough batches to
// smooth size jitter, few enough to follow a load shift. A request whose
// remaining deadline budget cannot cover it is dropped before it reaches a
// kernel instead of burning GEMM time on an answer that will arrive dead.
func (h *hosted) serviceMedian() time.Duration {
	h.svcMu.Lock()
	defer h.svcMu.Unlock()
	return h.svc.quantile(0.50)
}

// executeBatch wraps the engine call with panic recovery: the batch workers
// run outside net/http's per-request recovery, so without this a panic on
// one poisoned input would kill the whole process and strand every
// co-batched caller on its response channel. The panicking batch's callers
// all get a 500; the worker keeps serving (every inference step fully
// overwrites its output, so no corrupt state survives).
func (h *hosted) executeBatch(id int, imgs []*imgproc.Image, alts []float64) (per [][]detect.Detection, err error) {
	defer func() {
		if r := recover(); r != nil {
			per, err = nil, fmt.Errorf("batch execution panicked: %v", r)
		}
	}()
	return h.eng.ExecuteBatch(id, imgs, alts)
}

// Close stops admission (late requests get ErrClosed/503) on every hosted
// model at once, drains every already-admitted request through each
// model's batch workers, and returns once all of them have been answered.
// One fence covers all pools — a request racing Close is either admitted
// to its model's queue before the fence (and will be drained) or rejected,
// regardless of which model it routed to. Serialized against the lifecycle
// operations on adminMu, so a swap-in-progress finishes its drain before
// shutdown begins. Safe to call more than once.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		// Drain the streaming sessions FIRST, while the model pools are
		// still serving: a draining session's buffered frames ride the
		// normal batch path and their results are delivered before the
		// session's bye. Only then are the pools themselves fenced.
		s.streams.closeAndDrain()
		s.adminMu.Lock()
		defer s.adminMu.Unlock()
		t := s.table.Load()
		s.admitMu.Lock()
		s.closed = true
		for _, h := range t.order {
			h.retired = true
			close(h.queue)
		}
		s.admitMu.Unlock()
		for _, h := range t.order {
			h.batcherWG.Wait()
			h.workerWG.Wait()
			h.execWG.Wait()
			s.sched.unregister(h)
		}
	})
	return nil
}

// Shutdown is Close bounded by a context: it returns ctx.Err() if the drain
// outlives the context, leaving the drain to finish in the background.
func (s *Server) Shutdown(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
