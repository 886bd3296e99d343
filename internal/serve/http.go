package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"image"
	_ "image/jpeg" // register decoders for /detect/raw
	_ "image/png"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
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

// DetectRequest is the body of POST /detect, the same type as a stream
// frame: a planar CHW float RGB image (Pixels has length 3*Width*Height,
// channel-major, values in [0,1] — the same layout imgproc.Image uses) plus
// an optional UAV altitude in metres for the §III.D size gate. /detect
// ignores Seq and takes its deadline from the X-Dronet-Deadline header or
// ?deadline_ms=, never from DeadlineMs; both are omitted from a marshalled
// body when zero.
type DetectRequest = StreamFrame

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
// seeing the batching a request rode in.
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

// WriteJSON answers with status and v encoded as a JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers with status and the uniform error body
// {"error": message}, the one shape every error of the serving tier and
// the proxy in front of it takes.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, errorJSON{Error: fmt.Sprintf(format, args...)})
}

// tryAcquire reserves an in-flight slot for one decoded request image — an
// HTTP body about to be read or a session frame about to be buffered. The
// limit is recomputed on every registry change (twice the summed queue
// depth), which is why this is an atomic counter rather than a
// fixed-capacity channel. The turnaway (msgInflightFull) is the caller's to
// announce and count: it precedes route resolution, so it is visible on
// the fleet aggregate only.
func (s *Server) tryAcquire() bool {
	if s.inflight.Add(1) > s.inflightLimit.Load() {
		s.inflight.Add(-1)
		return false
	}
	return true
}

const msgInflightFull = "server overloaded: too many requests in flight"

// acquire is tryAcquire for the HTTP handlers: it writes the 429 itself,
// before the request body is read.
func (s *Server) acquire(w http.ResponseWriter) bool {
	if !s.tryAcquire() {
		s.fleet.admit()
		s.fleet.reject()
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusTooManyRequests, msgInflightFull)
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

// stampDeadline turns a budget into the absolute deadline counted from now
// (request or frame receipt); no budget is the zero time.
func stampDeadline(budget time.Duration) time.Time {
	if budget <= 0 {
		return time.Time{}
	}
	return time.Now().Add(budget)
}

// budgetOf is ParseDeadline for the handlers (/detect, /detect/raw and the
// /stream open), answering 400 itself on a malformed value.
func budgetOf(w http.ResponseWriter, r *http.Request) (time.Duration, bool) {
	budget, err := ParseDeadline(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
	}
	return budget, err == nil
}

// altitudeOf reads the ?altitude= query parameter in metres (/detect/raw
// and the /stream open; 0 when absent), answering 400 itself on a
// malformed value.
func altitudeOf(w http.ResponseWriter, r *http.Request) (float64, bool) {
	q := r.URL.Query().Get("altitude")
	if q == "" {
		return 0, true
	}
	v, err := strconv.ParseFloat(q, 64)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad altitude %q: %v", q, err)
	}
	return v, err == nil
}

// checkDims bounds a decoded or declared image: each side in
// [1, maxImageDim].
func checkDims(width, height int) error {
	if width < 1 || height < 1 || width > maxImageDim || height > maxImageDim {
		return fmt.Errorf("width and height must be in [1,%d], got %dx%d", maxImageDim, width, height)
	}
	return nil
}

// checkFrame is the one geometry and deadline-budget check behind /detect
// bodies and stream frames: checkDims, pixels exactly the planar
// 3*width*height, and a deadline_ms that is absent (0) or a budget
// ParseDeadline would accept.
func checkFrame(width, height, pixels int, deadlineMs int64) error {
	if err := checkDims(width, height); err != nil {
		return err
	}
	if pixels != 3*width*height {
		return fmt.Errorf("pixels length %d != 3*%d*%d", pixels, width, height)
	}
	if deadlineMs < 0 || deadlineMs > maxDeadlineBudget.Milliseconds() {
		return fmt.Errorf("bad deadline_ms %d: want an integer millisecond budget in [1,%d]", deadlineMs, maxDeadlineBudget.Milliseconds())
	}
	return nil
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
		WriteError(w, code, "%v", err)
		return "", false
	}
	return name, true
}

// handleDetectJSON serves POST /detect.
func (s *Server) handleDetectJSON(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	name, ok := s.checkExplicit(w, r)
	if !ok {
		return
	}
	budget, ok := budgetOf(w, r)
	if !ok {
		return
	}
	deadline := stampDeadline(budget)
	if !s.acquire(w) {
		return
	}
	defer s.release()
	req, err := readFrame(w, r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	// A deadline_ms in the body is a stream-frame field: /detect takes its
	// budget from the header or query, as stamped above.
	if err := checkFrame(req.Width, req.Height, len(req.Pixels), 0); err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// req.Pixels is a private, just-decoded slice of exactly 3*W*H floats in
	// the Image's own planar layout — adopt it rather than copying ~50MB at
	// max dimensions on the hot path.
	img := &imgproc.Image{W: req.Width, H: req.Height, Pix: req.Pixels}
	s.respond(w, r.Context(), routeSel{explicit: name, altitude: req.Altitude}, img, deadline)
}

// maxPooledBody caps the body buffers bodyPool keeps: a 96x96 frame is
// 280kB of JSON and a 320x320 one 3MB, while a buffer grown for a rare
// 64MB upload would sit in the pool as resident memory nobody needs again.
const maxPooledBody = 4 << 20

// bodyPool recycles the buffers /detect bodies are read into. A buffer is
// borrowed for the read and the decode only: decodeFrame copies everything
// it keeps out of it.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readFrame reads a /detect body, bounded by maxBodyBytes, into a pooled
// buffer sized once from Content-Length, and decodes it.
func readFrame(w http.ResponseWriter, r *http.Request) (StreamFrame, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes {
		// ReadFrom wants MinRead bytes free for the read that finds EOF.
		buf.Grow(int(n) + bytes.MinRead)
	}
	var f StreamFrame
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		f, err = decodeFrame(buf.Bytes())
	}
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
	return f, err
}

// handleDetectRaw serves POST /detect/raw: the body is a PNG or JPEG image,
// with the altitude (metres) in the ?altitude query parameter.
func (s *Server) handleDetectRaw(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if !s.acquire(w) {
		return
	}
	defer s.release()
	altitude, ok := altitudeOf(w, r)
	if !ok {
		return
	}
	name, ok := s.checkExplicit(w, r)
	if !ok {
		return
	}
	budget, ok := budgetOf(w, r)
	if !ok {
		return
	}
	deadline := stampDeadline(budget)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	img, err := decodeRaw(body)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.respond(w, r.Context(), routeSel{explicit: name, altitude: altitude}, img, deadline)
}

// decodeRaw turns a /detect/raw body (PNG or JPEG) into a float image. The
// declared geometry is checked before any pixel is decoded, so a small body
// cannot expand into a gigapixel allocation (PNG bombs compress well).
func decodeRaw(body []byte) (*imgproc.Image, error) {
	cfg, _, err := image.DecodeConfig(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("decode image: %w", err)
	}
	if err := checkDims(cfg.Width, cfg.Height); err != nil {
		return nil, err
	}
	src, _, err := image.Decode(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("decode image: %w", err)
	}
	return imgproc.FromGoImage(src), nil
}

// respond runs the image through infer and encodes the outcome as the HTTP
// answer: the detection JSON on 200, else the uniform error body with a
// Retry-After hint on transient backpressure.
func (s *Server) respond(w http.ResponseWriter, ctx context.Context, sel routeSel, img *imgproc.Image, deadline time.Time) {
	out := s.infer(ctx, sel, img, deadline, true)
	if out.status != http.StatusOK {
		if out.retryAfter {
			w.Header().Set("Retry-After", "1")
		}
		WriteError(w, out.status, "%s", out.msg)
		return
	}
	WriteJSON(w, http.StatusOK, DetectResponse{
		Detections: toJSON(out.resp.dets),
		Model:      out.pool.name,
		Generation: out.pool.gen,
		BatchSize:  out.resp.batch,
		LatencyMs:  out.lat.Seconds() * 1e3,
		Degraded:   out.degraded,
	})
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
// per hosted model under "models", including the pool generation.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	t := s.table.Load()
	queueCap, workers := 0, 0
	var workspace int64
	models := make(map[string]any, len(t.order))
	for _, h := range t.order {
		queueCap += h.cfg.QueueDepth
		ws := h.eng.WorkspaceBytes()
		workers += h.eng.Workers()
		workspace += ws
		in := h.eng.InShape()
		models[h.name] = map[string]any{
			"precision":       h.cfg.Precision,
			"input":           fmt.Sprintf("%dx%d", in.W, in.H),
			"workers":         h.eng.Workers(),
			"max_batch":       h.cfg.MaxBatch,
			"queue_cap":       cap(h.queue),
			"queue_depth":     len(h.queue),
			"max_altitude_m":  h.maxAlt,
			"workspace_bytes": ws,
			"weight_bytes":    h.eng.WeightBytes(),
			"default":         h == t.def,
			"generation":      h.gen,
		}
	}
	shardID, addr := s.Identity()
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":          "ok",
		"shard_id":        shardID,
		"addr":            addr,
		"kernel":          tensor.KernelName(),
		"precision":       t.def.cfg.Precision,
		"workers":         workers,
		"max_batch":       t.def.cfg.MaxBatch,
		"queue_cap":       queueCap,
		"workspace_bytes": workspace,
		"default_model":   t.def.name,
		"models":          models,
		"streaming":       s.streamHealth(),
	})
}

// handleMetrics serves GET /metrics: the fleet-aggregate Stats flattened at
// the top level plus per-model snapshots under "models".
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Report())
}
