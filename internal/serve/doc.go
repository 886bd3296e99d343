// Package serve is the network-facing detection service: an HTTP server
// hosting a routed registry of one or more named models, each with its own
// engine replica pool, and executing concurrent single-image detection
// requests as dynamic cross-stream micro-batches on the pool of whichever
// model each request routes to.
//
// # Model registry and routing
//
// A Server hosts N ModelEntry values — any mix of float32 and INT8 models
// at any input sizes (one network.Network type serves both: its
// convolutions are float32 layers.Conv2D or int8 quant.QConv). Every entry
// runs a complete private pipeline: its own bounded admission queue, its
// own batcher goroutine, and one batch worker per engine pool worker, so a
// slow large-input model saturates (and sheds load) without stalling its
// faster neighbours.
//
// The registry is MUTABLE UNDER TRAFFIC. AddModel registers a new entry,
// SwapModel atomically replaces a hosted model's weights (a fresh engine
// and replica pool are built and warmed off-path, the route table flips in
// one atomic pointer store, and the displaced pool drains its admitted
// requests before its engine is freed), and RemoveModel drains and
// retires a pool outright. Route tables are immutable snapshots behind an
// atomic pointer, so the data plane never takes a lock to resolve; a
// request that loses the race — it resolved the old table and reached a
// retiring pool mid-swap — is transparently re-resolved against the fresh
// table rather than failed. Every pool carries a server-unique GENERATION
// tag minted when it starts; /detect responses and per-model metrics echo
// it, so operators (and the swap-hammer tests) can prove exactly which
// weights served each request. Lifecycle mutations are exposed over HTTP
// by AdminHandler (see "Admin endpoints" below), which builds entries
// from -models-grammar specs via a pluggable ModelBuilder.
//
// Each request resolves to one model, in precedence order:
//
//  1. Explicit selection — the ?model= query parameter, then the X-Model
//     header. An unknown name is a 404, never a silent reroute.
//  2. The altitude default route — an entry with MaxAltitude > 0 serves
//     the altitude band up to that ceiling; a request carrying a positive
//     altitude is routed to the smallest band covering it, overflowing
//     above every band to the first unbounded entry (else the highest
//     band). This is the paper's operating-scenario trade-off as a routing
//     rule: low flight means large targets and a small fast model, high
//     flight means small targets and the larger-input model.
//  3. The default model — the first registered entry.
//
// # Request path
//
// There is one request spine. /detect, /detect/raw and every /stream frame
// decode their own wire format, then call Server.infer — the only caller
// of route resolution, brownout and the batching path, and the one table
// from failure to status code, message and Retry-After hint — and encode
// its outcome (HTTP status + JSON, or an in-band stream message).
//
// Every request is admitted through its model's bounded queue
// (Config.QueueDepth). When the queue is full the request is rejected
// immediately with HTTP 429 — backpressure instead of unbounded buffering,
// so overload degrades callers' throughput, never the server's memory. The
// bound covers request decoding too: image sides are capped at 2048px,
// bodies at 64MB, and at most 2× the summed queue depth of requests may
// hold decoded images at once — beyond that, requests are shed with 429
// before their body is even read. Rejected requests never retain the
// decoded frame, and an idle batch worker's staging slice is cleared after
// every batch, so no serving state pins pixels beyond a request's
// lifetime. Per model, a single batcher goroutine drains the queue and
// coalesces waiting requests into micro-batches under one rule: a request
// waits only while every worker is busy. The batch a request starts goes
// to an idle worker at once; while none is idle it absorbs arrivals, up to
// Config.MaxBatch images, until a worker frees up. There is no timer: on
// the CPU kernels an 8-image batch costs 8.0× a single image at quarter
// scale and 8.2× at paper scale (medians of three traced bench runs on a
// 2-CPU x86 box), so holding a lone request back
// for company buys no throughput, only latency. Each batch becomes one
// N-image batched forward on that model's pooled worker replica
// (engine.ExecuteBatch); the per-image detections are then fanned back to
// the waiting callers. Requests whose client context is already done when
// the batcher reaches them are dropped at assembly — answered with a 499
// and counted in cancelled_total — instead of wasting a batch slot on an
// answer nobody reads.
//
// # Frame grammar
//
// A /detect body and a /stream frame are one JSON object, decoded by one
// hand-written single-pass scanner (decodeFrame) instead of encoding/json,
// whose reflective decode of a 96x96 frame's 27,648 floats cost more than
// four forward passes. The scanner is held to json.Unmarshal into a
// StreamFrame by a differential fuzz target — the same documents accepted,
// every field equal, pixels bit for bit (each is what
// strconv.ParseFloat(token, 32) returns) — so these are encoding/json's
// rules: keys width, height, pixels, altitude, seq and deadline_ms match
// under Unicode case folding, escapes included; any other key's value is
// validated and skipped; a repeated key's last value wins; null leaves a
// field as it was; an integer field takes an integer literal only (1.0 and
// 1e0 are refused); a pixel outside the float32 range is refused. /detect
// reads no seq or deadline_ms (its budget is the header or query) but
// type-checks them.
//
// Two rules are tighter than the decoder this replaced, and refuse only
// what no valid frame contains. Nothing but whitespace may follow the
// object: /detect used to ignore trailing bytes while stream frames
// refused them. And a width and height that PRECEDE pixels bind it: sides
// outside [1,2048] are refused there, the pixel slice is allocated once at
// exactly 3*width*height (never more than the body could fill), and the
// array is refused at its first element beyond that rather than
// materialised for the length check — a repeated width or height after the
// array cannot rescue it. With no dimensions yet the slice grows, up to
// the largest frame's 3*2048*2048. A stream refusal echoes whatever seq
// was read before it.
//
// The /detect body is read once into a pooled buffer sized from
// Content-Length; the buffer's life ends when the decoder returns, and one
// grown past 4MB is dropped rather than pooled. The pixel slice is never
// pooled: it crosses into the batcher, and plain allocation keeps its
// ownership trivial.
//
// # Deadlines
//
// A request may carry an end-to-end budget — the X-Dronet-Deadline header
// (milliseconds remaining) or ?deadline_ms= — and the server refuses to
// spend compute on answers nobody can use. A budget already expired at
// admission is a 504 before the request touches a queue; a budget smaller
// than the pool's median batch service time (over its last 32–64
// batches) is dropped by the batcher at assembly, again 504, BEFORE the
// batch reaches a kernel. Both paths count deadline_exceeded_total, and
// the accounting identity sum(batch_size*count) == completed+failed over
// the batch histogram proves dropped-expired work never executed. A
// budget over maxDeadlineBudget (one day) is refused as malformed — 400
// on the HTTP and stream-open paths, an in-band 400 per stream frame — so
// an overflowing millisecond count cannot wrap into a negative budget.
//
// # Brownout degradation and budgeted retries
//
// A model entry may declare a cheaper sibling (ModelEntry.Degrade, the
// degrade= field of the -models grammar). When the primary's queue is at
// least three quarters full, implicitly-routed requests shed to the sibling
// until it is at most a quarter full — enter/exit hysteresis, so the
// router doesn't flap. Degraded responses carry "degraded":true plus the
// serving model's name, and count degraded_total on the model that shed.
// Explicit ?model=/X-Model selections are never degraded — the caller
// asked for that model by name.
//
// A request that raced a swap/remove re-resolves against a token bucket
// (refilled by successes) with exponential backoff and full jitter; when
// the bucket is dry the request fails fast with 503 + Retry-After instead
// of feeding a retry storm, and retry_budget_tokens is exported in
// /metrics.
//
// # Per-model workers
//
// Each hosted model runs its batches on its own engine's Workers()
// replicas only: a backlogged model waits for its own workers however idle
// its neighbours are, so no model can take CPU a neighbour was sized for.
// The borrows_total counter in /metrics always reads 0; it stays only for
// the benchmark row that reads it.
//
// Batching is invisible to correctness: a batched forward produces
// byte-identical per-image detections to single-image inference
// (network.DetectBatch documents why). Batches form only from requests that
// would otherwise have waited for a worker, so no request is held back for
// company.
//
// # Endpoints
//
//	POST /detect      JSON {"width","height","pixels":[...],"altitude"}
//	                  where pixels is the planar CHW float RGB image
//	                  (length 3*width*height, values in [0,1])
//	POST /detect/raw  a PNG (or JPEG) image body; ?altitude=metres optional
//	GET  /healthz     liveness plus the serving configuration: fleet
//	                  totals at the top level, one labelled block per
//	                  hosted model under "models" (precision, input size,
//	                  queue depth/cap, altitude band, workspace bytes)
//	GET  /metrics     JSON serving statistics (MetricsReport): the fleet
//	                  aggregate flattened at the top level — queue depth,
//	                  p50/p99/mean/max latency, the latency histogram
//	                  (latency_hist_us, the last 2,048–4,096 requests),
//	                  batch-size histogram, aggregate FPS — plus
//	                  per-model Stats under "models"
//
// Both detect endpoints accept ?model= / X-Model and respond with
//
//	{"detections":[{"x","y","w","h","class","score"},...],
//	 "model":NAME,"batch_size":N,"latency_ms":L}
//
// where boxes are center-format in normalized image coordinates, model
// names the entry that served the request (so callers can observe the
// altitude route), generation tags the serving pool's lifecycle
// incarnation, batch_size is the micro-batch the request rode in (above
// one only when the request queued behind busy workers), and latency_ms is
// queue+inference time.
//
// # Admin endpoints
//
// AdminHandler returns a SEPARATE handler — bind it to a loopback or
// otherwise-guarded listener, never the data port — exposing the registry
// over HTTP:
//
//	GET    /admin/models         list hosted models with generations
//	POST   /admin/models         {"spec":"name=model:size:precision[:maxalt]"}
//	                             hot-add → 201 with the minted generation
//	PUT    /admin/models/{name}  atomic weight swap → 200 with old and new
//	                             generations (the spec may omit "name=")
//	DELETE /admin/models/{name}  drain-then-retire → 200; removing the
//	                             last hosted model is a 409
//
// Specs are built into live entries by the ModelBuilder installed with
// SetModelBuilder (cmd/dronet-serve wires its startup constructor,
// including int8 calibration); without one, mutating requests get 501.
//
// # Streaming sessions
//
// GET /stream upgrades to a WebSocket (internal/ws) and opens a SESSION:
// a camera streams frames and receives, in order, one answer per frame
// carrying the detections plus the session's live TRACKS — stable ids,
// velocity estimates and ages from a per-session internal/tracking
// tracker, state one-shot /detect cannot offer. Frames from concurrent
// sessions still coalesce into the same cross-stream micro-batches as
// /detect requests (the tracker update happens after the batch, on the
// session's own goroutine), so batching stays model-identical to one-shot
// serving — pinned by a race-mode test comparing eight concurrent
// sessions byte-for-byte against a serial per-session oracle. Frames are
// never browned out: a tracker fed by two models would see shifted boxes.
//
// Session lifecycle is bounded end to end: StreamConfig.MaxSessions caps
// concurrently open sessions (beyond it the upgrade is refused with a
// plain-HTTP 503 + Retry-After), a sweeper evicts sessions idle past
// StreamConfig.IdleTimeout with an in-band bye ("idle") before the close
// frame, and per-session backpressure bounds buffered frames at
// StreamConfig.MaxInflight — the overflow policy (?policy=reject, the
// default, answers an in-band 429-style reject; ?policy=drop displaces
// the oldest buffered frame with a drop notice) is the client's choice
// at open. A session may set a default per-frame
// deadline at open (?deadline_ms=); any frame's own deadline_ms
// overrides it (a negative or over-a-day value is an in-band 400, the
// bounds of the HTTP budget), and expired frames are answered in-band with
// code 504 without ever reaching a kernel. On Close/SIGTERM every session gets a
// bye ("drain") and the server waits for their goroutines — sessions are
// part of the drain guarantee, not an exception to it.
//
// The wire protocol is JSON text messages (StreamMessage, discriminated
// by "type"): "hello" echoes the session id, camera, shard and knobs;
// "result" answers one frame; "reject"/"drop"/"error" are per-frame
// in-band failures that never kill the session; "bye" announces the
// reason before the close frame. Behind dronet-proxy, sessions pin to
// the camera's ring owner and are transparently re-homed on shard
// failure with an injected "resumed" marker (internal/cluster).
//
// # Shutdown
//
// Close (or Shutdown with a context) stops admission on every model at
// once — late requests get HTTP 503 — then drains every queued request of
// every pool through its workers before returning, so no accepted request
// is ever dropped regardless of which model it routed to. Streaming
// sessions drain the same way: bye, close frame, goroutines joined.
package serve
