package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/tracking"
	"repro/internal/ws"
)

// Server→client stream message types (StreamMessage.Type).
const (
	MsgHello   = "hello"   // session opened: identity, knobs, shard
	MsgResult  = "result"  // one frame's detections + tracks
	MsgReject  = "reject"  // in-band 429: backlog/overload, frame not executed
	MsgDrop    = "drop"    // drop-oldest displaced this buffered frame
	MsgError   = "error"   // in-band error for one frame (404/500/503/504)
	MsgBye     = "bye"     // session closing: reason, then a close frame
	MsgResumed = "resumed" // proxy-injected: session re-homed after failover
)

// StreamFrame is one client→server frame on a streaming session, and the
// body of POST /detect (DetectRequest): a planar CHW float image with an
// optional altitude, plus a client sequence number echoed on the answer and
// an optional per-frame deadline budget that overrides the session default.
type StreamFrame struct {
	Seq        int       `json:"seq,omitempty"`
	Width      int       `json:"width"`
	Height     int       `json:"height"`
	Pixels     []float32 `json:"pixels"`
	Altitude   float64   `json:"altitude,omitempty"`
	DeadlineMs int64     `json:"deadline_ms,omitempty"`
}

// TrackJSON is one confirmed track on the wire: the current box (center
// format, normalized coordinates), the class/score of the latest
// associated detection, the per-frame velocity estimate, and the track's
// stable id — the whole point of a session versus one-shot /detect.
type TrackJSON struct {
	ID    int     `json:"id"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	W     float64 `json:"w"`
	H     float64 `json:"h"`
	Class int     `json:"class"`
	Score float64 `json:"score"`
	VX    float64 `json:"vx"`
	VY    float64 `json:"vy"`
	Hits  int     `json:"hits"`
	Age   int     `json:"age"` // frames since first observation
}

// StreamMessage is every server→client message of the session protocol,
// discriminated by Type; unused fields are omitted on the wire. One struct
// instead of seven keeps client decoding a single switch.
type StreamMessage struct {
	Type    string `json:"type"`
	Session string `json:"session,omitempty"`
	Camera  string `json:"camera,omitempty"`
	ShardID string `json:"shard_id,omitempty"`
	Model   string `json:"model,omitempty"`
	Reason  string `json:"reason,omitempty"`
	Resumed bool   `json:"resumed,omitempty"`

	// Per-frame answer fields (result/reject/drop/error).
	Seq        int             `json:"seq,omitempty"`
	Frame      int             `json:"frame,omitempty"`
	Generation uint64          `json:"generation,omitempty"`
	BatchSize  int             `json:"batch_size,omitempty"`
	LatencyMs  float64         `json:"latency_ms,omitempty"`
	Code       int             `json:"code,omitempty"`
	Error      string          `json:"error,omitempty"`
	Detections []DetectionJSON `json:"detections,omitempty"`
	Tracks     []TrackJSON     `json:"tracks,omitempty"`

	// Session knobs echoed on hello.
	MaxInflight   int     `json:"max_inflight,omitempty"`
	IdleTimeoutMs float64 `json:"idle_timeout_ms,omitempty"`
	DeadlineMs    int64   `json:"deadline_ms,omitempty"`
	Policy        string  `json:"policy,omitempty"`
}

// mustMarshal encodes a wire message; the message types contain nothing
// unmarshalable, so an error here is a programming bug worth crashing on.
func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("serve: marshal stream message: %v", err))
	}
	return b
}

// toTrackJSON converts confirmed tracks to the wire format (never nil).
func toTrackJSON(tracks []*tracking.Track) []TrackJSON {
	out := make([]TrackJSON, len(tracks))
	for i, tr := range tracks {
		out[i] = TrackJSON{
			ID: tr.ID, X: tr.Box.X, Y: tr.Box.Y, W: tr.Box.W, H: tr.Box.H,
			Class: tr.Class, Score: tr.Score, VX: tr.VX, VY: tr.VY,
			Hits: tr.Hits, Age: tr.LastFrame - tr.FirstFrame,
		}
	}
	return out
}

// decodeStreamFrame parses and validates one frame message, returning the
// in-band error answer (nil on success) with the same geometry and
// deadline-budget bounds the HTTP path enforces (checkFrame). The answer
// echoes whatever seq was read before the refusal.
func decodeStreamFrame(raw []byte) (*StreamFrame, *StreamMessage) {
	f, err := decodeFrame(raw)
	if err != nil {
		err = fmt.Errorf("bad frame: %v", err)
	} else {
		err = checkFrame(f.Width, f.Height, len(f.Pixels), f.DeadlineMs)
	}
	if err != nil {
		return nil, &StreamMessage{Type: MsgError, Seq: f.Seq, Code: 400, Error: err.Error()}
	}
	return &f, nil
}

// cameraLabel extracts the client's camera identity (?camera= query, then
// the X-Camera-ID header) — the same affinity key the cluster ring pins.
func cameraLabel(r *http.Request) string {
	if c := r.URL.Query().Get("camera"); c != "" {
		return c
	}
	return r.Header.Get("X-Camera-ID")
}

// handleStream serves GET /stream: validate everything refusable over
// plain HTTP first (model, altitude, deadline, policy, capacity), then
// upgrade to a WebSocket and hand the connection to a session. Query
// parameters at open time: ?model= (explicit route, else altitude/default
// routing per frame), ?altitude= (session default), ?deadline_ms= (or the
// X-Dronet-Deadline header: session-default per-frame budget; a frame's
// own deadline_ms overrides), ?camera= (affinity/identity label),
// ?policy=reject|drop and ?inflight=N (backpressure overrides, the
// in-flight bound only downward).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "GET (websocket upgrade) required")
		return
	}
	if !ws.IsUpgrade(r) {
		WriteError(w, http.StatusUpgradeRequired, "/stream requires a websocket upgrade")
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
	altitude, ok := altitudeOf(w, r)
	if !ok {
		return
	}
	cfg := s.streams.snapshotCfg()
	policy := cfg.Policy
	if q := r.URL.Query().Get("policy"); q != "" {
		if q != PolicyReject && q != PolicyDrop {
			WriteError(w, http.StatusBadRequest, "bad policy %q: want %q or %q", q, PolicyReject, PolicyDrop)
			return
		}
		policy = q
	}
	inflight := cfg.MaxInflight
	if q := r.URL.Query().Get("inflight"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			WriteError(w, http.StatusBadRequest, "bad inflight %q: want a positive integer", q)
			return
		}
		if v < inflight {
			inflight = v
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	trkCfg := cfg.Tracker
	trkCfg.OnRetire = func(*tracking.Track) { s.fleet.trackRetired() }
	sess := &session{
		id:       fmt.Sprintf("s%d", s.streams.nextID.Add(1)),
		camera:   cameraLabel(r),
		sel:      routeSel{explicit: name, altitude: altitude},
		srv:      s,
		mgr:      s.streams,
		tracker:  tracking.New(trkCfg),
		budget:   budget,
		policy:   policy,
		inflight: inflight,
		frames:   make(chan *streamJob, inflight),
		ctx:      ctx,
		cancel:   cancel,
		done:     make(chan struct{}),
	}
	if refusal := s.streams.open(sess); refusal != "" {
		cancel()
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusServiceUnavailable, "%s", refusal)
		return
	}
	conn, err := ws.Accept(w, r)
	if err != nil {
		// Accept fails before hijacking, so the HTTP answer still works.
		s.streams.unregister(sess)
		cancel()
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sess.start(conn)
}

// streamHealth is the /healthz "streaming" block.
func (s *Server) streamHealth() map[string]any {
	cfg := s.streams.snapshotCfg()
	return map[string]any{
		"sessions_open":   s.streams.openCount(),
		"max_sessions":    cfg.MaxSessions,
		"idle_timeout_ms": cfg.IdleTimeout.Seconds() * 1e3,
		"max_inflight":    cfg.MaxInflight,
		"policy":          cfg.Policy,
	}
}

// ConfigureStreams replaces the streaming tier's lifecycle knobs (bounded
// sessions, idle eviction, per-session backpressure, tracker tuning).
// Sessions already open keep the bounds they were opened with; new
// sessions and the idle sweeper use the fresh config. Call any time before
// Close; typically once at startup, from the -max-sessions/-session-idle/
// -session-inflight flags.
func (s *Server) ConfigureStreams(cfg StreamConfig) { s.streams.configure(cfg) }

// StreamSessions returns the live-session gauge.
func (s *Server) StreamSessions() int { return s.streams.openCount() }
