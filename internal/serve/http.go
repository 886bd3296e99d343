package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"image"
	_ "image/jpeg" // register decoders for /detect/raw
	_ "image/png"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/detect"
	"repro/internal/imgproc"
	"repro/internal/tensor"
)

// maxBodyBytes bounds request bodies: a 608x608 planar float image is ~13MB
// as JSON, so 64MB leaves headroom without letting one caller exhaust RAM.
const maxBodyBytes = 64 << 20

// maxImageDim bounds each image side — generous against the ≤608px network
// inputs, but small enough that one decoded image is ~50MB at worst.
// Besides rejecting absurd inputs it keeps 3*Width*Height far from integer
// overflow, which would otherwise let a crafted width/height pair slip past
// the pixel-length check (e.g. 3*2^32*2^32 wraps to 0, "matching" an empty
// pixels array).
const maxImageDim = 2048

// statusClientClosedRequest is nginx's de-facto-standard status for a
// request whose client went away before the response: the admission path
// drops context-cancelled requests at batch assembly, and nobody is
// usually listening for this code — it exists for access logs.
const statusClientClosedRequest = 499

// DetectRequest is the body of POST /detect: a planar CHW float RGB image
// (Pixels has length 3*Width*Height, channel-major, values in [0,1] — the
// same layout imgproc.Image uses) plus an optional UAV altitude in metres
// for the §III.D size gate.
type DetectRequest struct {
	Width    int       `json:"width"`
	Height   int       `json:"height"`
	Pixels   []float32 `json:"pixels"`
	Altitude float64   `json:"altitude,omitempty"`
}

// DetectionJSON is one detection on the wire: a center-format box in
// normalized image coordinates.
type DetectionJSON struct {
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	W     float64 `json:"w"`
	H     float64 `json:"h"`
	Class int     `json:"class"`
	Score float64 `json:"score"`
}

// DetectResponse is the body of a successful detection response. Model
// names the hosted model that served the request (so callers can observe
// where the altitude route sent them), Generation tags the exact serving
// pool that computed it — across a hot swap the route name stays and the
// generation changes, so a client can prove which weights answered.
// BatchSize reports the micro-batch this request was executed in, and
// LatencyMs the end-to-end queue+inference time — observability aids for
// tuning the batching knobs.
type DetectResponse struct {
	Detections []DetectionJSON `json:"detections"`
	Model      string          `json:"model,omitempty"`
	Generation uint64          `json:"generation,omitempty"`
	BatchSize  int             `json:"batch_size"`
	LatencyMs  float64         `json:"latency_ms"`
	// Degraded marks a response served by the model's cheaper brownout
	// sibling instead of the model routing selected: Model names the pool
	// that actually computed it, Degraded says the downgrade happened.
	Degraded bool `json:"degraded,omitempty"`
}

// errorJSON is the uniform error body.
type errorJSON struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorJSON{Error: fmt.Sprintf(format, args...)})
}

// acquire reserves an in-flight slot before a request body is read,
// writing a 429 and returning false when the server already holds its
// maximum number of request images. The limit is recomputed on every
// registry change (twice the summed queue depth), which is why this is an
// atomic counter rather than a fixed-capacity channel.
func (s *Server) acquire(w http.ResponseWriter) bool {
	if s.inflight.Add(1) > s.inflightLimit.Load() {
		s.inflight.Add(-1)
		// Shed before any model is even resolved: the turnaway is visible
		// on the fleet aggregate only.
		s.fleet.admit()
		s.fleet.reject()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "server overloaded: too many requests in flight")
		return false
	}
	return true
}

func (s *Server) release() { s.inflight.Add(-1) }

// DeadlineHeader carries a request's remaining end-to-end budget in whole
// milliseconds. Clients set it (or ?deadline_ms=) on the first hop; the
// proxy re-stamps it decremented on every forward, so each tier sees the
// budget that is genuinely left, not what the client started with.
const DeadlineHeader = "X-Dronet-Deadline"

// maxDeadlineBudget bounds every client-supplied deadline budget (header,
// query or a stream frame's deadline_ms): a larger millisecond count would
// overflow time.Duration into a negative budget, i.e. an instant 504 for
// the most patient client. Anything over a day is a client bug, not a
// deadline, and is refused as malformed.
const maxDeadlineBudget = 24 * time.Hour

// ParseDeadline extracts a request's deadline budget: the X-Dronet-Deadline
// header first (the proxy-decremented value wins over the original query
// the proxy also forwards), then ?deadline_ms=. Returns 0 with no error
// when the request carries no deadline; the budget must be a positive
// integer millisecond count of at most maxDeadlineBudget.
func ParseDeadline(r *http.Request) (time.Duration, error) {
	raw := r.Header.Get(DeadlineHeader)
	src := DeadlineHeader + " header"
	if raw == "" {
		raw = r.URL.Query().Get("deadline_ms")
		src = "deadline_ms"
	}
	if raw == "" {
		return 0, nil
	}
	ms, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || ms <= 0 || ms > maxDeadlineBudget.Milliseconds() {
		return 0, fmt.Errorf("bad %s %q: want an integer millisecond budget in [1,%d]", src, raw, maxDeadlineBudget.Milliseconds())
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// deadlineOf stamps the absolute deadline at request receipt (zero time
// when the request carries none), answering 400 itself on a malformed
// value.
func (s *Server) deadlineOf(w http.ResponseWriter, r *http.Request) (time.Time, bool) {
	budget, err := ParseDeadline(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return time.Time{}, false
	}
	if budget == 0 {
		return time.Time{}, true
	}
	return time.Now().Add(budget), true
}

// routeSel is a request's routing inputs, kept so the dispatch loop can
// RE-resolve against a fresh table when a submit races a swap/remove:
// explicit ?model=/X-Model selection wins outright, else a positive
// altitude walks the bounded bands, else the default model.
type routeSel struct {
	explicit string
	altitude float64
}

// explicitName extracts the explicit model selection (?model= query
// parameter, then the X-Model header); empty means no selection.
func explicitName(r *http.Request) string {
	if name := r.URL.Query().Get("model"); name != "" {
		return name
	}
	return r.Header.Get("X-Model")
}

// resolve maps a selection to a hosted pool against the CURRENT table. An
// unknown explicit name is a 404, never silently rerouted — including the
// case where the name was just hot-removed mid-request.
func (s *Server) resolve(sel routeSel) (*hosted, int, error) {
	t := s.table.Load()
	if sel.explicit != "" {
		h, ok := t.byName[sel.explicit]
		if !ok {
			return nil, http.StatusNotFound, fmt.Errorf("unknown model %q (hosted: %s)", sel.explicit, strings.Join(s.Models(), ", "))
		}
		return h, 0, nil
	}
	if sel.altitude > 0 && len(t.altRoutes) > 0 {
		for _, h := range t.altRoutes {
			if sel.altitude <= h.maxAlt {
				return h, 0, nil
			}
		}
		return t.overflow, 0, nil
	}
	return t.def, 0, nil
}

// checkExplicit pre-validates an explicit selection before the body is
// decoded, so a misrouted 64MB upload is answered without ever parsing it.
// The dispatch loop still re-resolves after decode — the registry may have
// changed — but the common-case typo fails fast here.
func (s *Server) checkExplicit(w http.ResponseWriter, r *http.Request) (string, bool) {
	name := explicitName(r)
	if name == "" {
		return "", true
	}
	if _, code, err := s.resolve(routeSel{explicit: name}); err != nil {
		writeError(w, code, "%v", err)
		return "", false
	}
	return name, true
}

// handleDetectJSON serves POST /detect.
func (s *Server) handleDetectJSON(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	name, ok := s.checkExplicit(w, r)
	if !ok {
		return
	}
	deadline, ok := s.deadlineOf(w, r)
	if !ok {
		return
	}
	if !s.acquire(w) {
		return
	}
	defer s.release()
	var req DetectRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Width < 1 || req.Height < 1 || req.Width > maxImageDim || req.Height > maxImageDim {
		writeError(w, http.StatusBadRequest, "width and height must be in [1,%d], got %dx%d", maxImageDim, req.Width, req.Height)
		return
	}
	if len(req.Pixels) != 3*req.Width*req.Height {
		writeError(w, http.StatusBadRequest, "pixels length %d != 3*%d*%d", len(req.Pixels), req.Width, req.Height)
		return
	}
	// req.Pixels is a private, just-decoded slice of exactly 3*W*H floats in
	// the Image's own planar layout — adopt it rather than copying ~50MB at
	// max dimensions on the hot path.
	img := &imgproc.Image{W: req.Width, H: req.Height, Pix: req.Pixels}
	s.respond(w, r.Context(), routeSel{explicit: name, altitude: req.Altitude}, img, req.Altitude, deadline)
}

// handleDetectRaw serves POST /detect/raw: the body is a PNG or JPEG image,
// with the altitude (metres) in the ?altitude query parameter.
func (s *Server) handleDetectRaw(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if !s.acquire(w) {
		return
	}
	defer s.release()
	var altitude float64
	if q := r.URL.Query().Get("altitude"); q != "" {
		v, err := strconv.ParseFloat(q, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad altitude %q: %v", q, err)
			return
		}
		altitude = v
	}
	name, ok := s.checkExplicit(w, r)
	if !ok {
		return
	}
	deadline, ok := s.deadlineOf(w, r)
	if !ok {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	// Check the declared geometry before decoding pixels, so a small body
	// cannot expand into a gigapixel allocation (PNG bombs compress well).
	cfg, _, err := image.DecodeConfig(bytes.NewReader(body))
	if err != nil {
		writeError(w, http.StatusBadRequest, "decode image: %v", err)
		return
	}
	if cfg.Width < 1 || cfg.Height < 1 || cfg.Width > maxImageDim || cfg.Height > maxImageDim {
		writeError(w, http.StatusBadRequest, "image dimensions must be in [1,%d], got %dx%d", maxImageDim, cfg.Width, cfg.Height)
		return
	}
	src, _, err := image.Decode(bytes.NewReader(body))
	if err != nil {
		writeError(w, http.StatusBadRequest, "decode image: %v", err)
		return
	}
	s.respond(w, r.Context(), routeSel{explicit: name, altitude: altitude}, imgproc.FromGoImage(src), altitude, deadline)
}

// maxRouteRetries bounds the re-resolve loop in respond: each retry
// requires a registry mutation to have raced this exact request, so eight
// consecutive losses means lifecycle churn is outpacing traffic — at that
// point a 503 (with the retries_exhausted_total counter) beats spinning a
// handler goroutine indefinitely.
const maxRouteRetries = 8

// retryBackoffBase / retryBackoffMax bound the jittered pause between
// re-resolve attempts (see Backoff): long enough to let the racing
// registry mutation publish its table, short enough to be invisible next
// to inference time.
const (
	retryBackoffBase = time.Millisecond
	retryBackoffMax  = 50 * time.Millisecond
)

// respond resolves the route, pushes the image through the routed model's
// micro-batcher and writes the result. The loop re-resolves and retries
// when the resolved pool retired between resolution and submit (a
// swap/remove raced this request) — each retry reads the freshly-published
// table, so under sane lifecycle churn it terminates in one or two passes;
// the retry is what turns a lifecycle race into "served by the new
// generation" instead of an error. Retries are doubly bounded: a hard cap
// of maxRouteRetries attempts per request, and the server-wide RetryBudget
// drawn one token per retry (refilled by successes) — either bound
// exhausted means 503 + Retry-After + retries_exhausted_total rather than
// goroutines spinning against pathological registry churn. Before the
// submit, brownout degradation may swap an implicitly-routed request onto
// the resolved model's cheaper sibling (response tagged "degraded":true).
func (s *Server) respond(w http.ResponseWriter, ctx context.Context, sel routeSel, img *imgproc.Image, altitude float64, deadline time.Time) {
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if attempt >= maxRouteRetries || !s.retry.Take() {
				s.fleet.retryExhausted()
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusServiceUnavailable,
					"route retries exhausted after %d attempts (registry churn or retry budget drained)", attempt)
				return
			}
			time.Sleep(Backoff(attempt-1, retryBackoffBase, retryBackoffMax))
		}
		h, code, err := s.resolve(sel)
		if err != nil {
			writeError(w, code, "%v", err)
			return
		}
		h, degradedFrom := s.maybeDegrade(h, sel)
		resp, lat, err := s.detect(ctx, h, img, altitude, deadline)
		switch {
		case errors.Is(err, errRetired):
			continue
		case errors.Is(err, errCancelled):
			writeError(w, statusClientClosedRequest, "client closed request before batch assembly")
			return
		case errors.Is(err, errDeadline):
			writeError(w, http.StatusGatewayTimeout, "deadline exceeded before the result could be served")
			return
		case errors.Is(err, ErrOverloaded):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "server overloaded: admission queue full")
			return
		case errors.Is(err, ErrClosed):
			writeError(w, http.StatusServiceUnavailable, "server shutting down")
			return
		case err != nil:
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		case resp.err != nil:
			writeError(w, http.StatusInternalServerError, "inference: %v", resp.err)
			return
		}
		s.retry.Success()
		if degradedFrom != nil {
			// Counted at completion, on the model that shed the work — a
			// degraded request that ends up 429'd by the sibling is that
			// sibling's rejection, not a successful degradation.
			degradedFrom.met.degrade()
			s.fleet.degrade()
		}
		writeJSON(w, http.StatusOK, DetectResponse{
			Detections: toJSON(resp.dets),
			Model:      h.name,
			Generation: h.gen,
			BatchSize:  resp.batch,
			LatencyMs:  lat.Seconds() * 1e3,
			Degraded:   degradedFrom != nil,
		})
		return
	}
}

// toJSON converts detections to the wire format (never nil, so the JSON is
// always an array).
func toJSON(dets []detect.Detection) []DetectionJSON {
	out := make([]DetectionJSON, len(dets))
	for i, d := range dets {
		out[i] = DetectionJSON{X: d.Box.X, Y: d.Box.Y, W: d.Box.W, H: d.Box.H, Class: d.Class, Score: d.Score}
	}
	return out
}

// handleHealthz serves GET /healthz: fleet-level liveness and configuration
// at the top level (the process shard identity, queue capacity, worker and
// workspace totals across every pool; precision and batching knobs of the
// default route, which for a single-model server makes the document
// identical in meaning to the pre-registry one), plus one labelled block
// per hosted model under "models" — now including the pool generation,
// lending weight and currently-borrowed worker count.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	t := s.table.Load()
	queueCap := 0
	models := make(map[string]any, len(t.order))
	for _, h := range t.order {
		queueCap += h.cfg.QueueDepth
		in := h.eng.InShape()
		models[h.name] = map[string]any{
			"precision":        h.cfg.Precision,
			"input":            fmt.Sprintf("%dx%d", in.W, in.H),
			"workers":          h.eng.Workers(),
			"max_batch":        h.cfg.MaxBatch,
			"max_wait_ms":      h.cfg.MaxWait.Seconds() * 1e3,
			"min_wait_ms":      h.cfg.MinWait.Seconds() * 1e3,
			"queue_cap":        h.queue.Cap(),
			"queue_depth":      h.queue.Len(),
			"max_altitude_m":   h.maxAlt,
			"workspace_bytes":  h.eng.WorkspaceBytes(),
			"weight_bytes":     h.eng.WeightBytes(),
			"default":          h == t.def,
			"generation":       h.gen,
			"weight":           h.weight,
			"borrowed_workers": s.sched.borrowedNow(h),
		}
	}
	shardID, addr := s.Identity()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":          "ok",
		"shard_id":        shardID,
		"addr":            addr,
		"kernel":          tensor.KernelName(),
		"precision":       t.def.cfg.Precision,
		"workers":         s.group.Workers(),
		"max_batch":       t.def.cfg.MaxBatch,
		"max_wait_ms":     t.def.cfg.MaxWait.Seconds() * 1e3,
		"min_wait_ms":     t.def.cfg.MinWait.Seconds() * 1e3,
		"queue_cap":       queueCap,
		"workspace_bytes": s.group.WorkspaceBytes(),
		"default_model":   t.def.name,
		"models":          models,
		"streaming":       s.streamHealth(),
	})
}

// handleMetrics serves GET /metrics: the fleet-aggregate Stats flattened at
// the top level plus per-model snapshots under "models".
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Report())
}
