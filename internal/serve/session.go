package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/imgproc"
	"repro/internal/tracking"
	"repro/internal/ws"
)

// Backpressure policies for a session whose frame buffer is full: "reject"
// answers the NEW frame with an in-band 429 and keeps the backlog; "drop"
// displaces the OLDEST buffered frame (announcing the drop in-band) so the
// freshest camera frame is always the one that executes — the right call
// for live monitoring, where a stale frame's detections are worthless. A
// session chooses at open time (?policy=); reject is the default.
const (
	PolicyReject = "reject"
	PolicyDrop   = "drop"
)

// StreamConfig tunes the streaming-session tier (see Server.ConfigureStreams).
// The zero value of every knob selects the documented default.
type StreamConfig struct {
	// MaxSessions bounds concurrently open sessions; an open attempt over
	// the bound is answered 503 + Retry-After before the WebSocket
	// upgrade. Default 64.
	MaxSessions int
	// IdleTimeout evicts a session with no frame traffic for this long
	// (the sweep goroutine closes it with an in-band bye "idle").
	// Default 60s.
	IdleTimeout time.Duration
	// SweepInterval is the idle-sweeper period. Default IdleTimeout/4,
	// clamped to [5ms, 5s].
	SweepInterval time.Duration
	// MaxInflight bounds each session's buffered frames (admitted but not
	// yet executing); the buffer overflowing triggers the backpressure
	// policy. A session may request a SMALLER bound at open time
	// (?inflight=), never a larger one. Default 4.
	MaxInflight int
}

// withDefaults normalizes the zero-value knobs.
func (c StreamConfig) withDefaults() StreamConfig {
	if c.MaxSessions < 1 {
		c.MaxSessions = 64
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 60 * time.Second
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = c.IdleTimeout / 4
	}
	if c.SweepInterval < 5*time.Millisecond {
		c.SweepInterval = 5 * time.Millisecond
	}
	if c.SweepInterval > 5*time.Second {
		c.SweepInterval = 5 * time.Second
	}
	if c.MaxInflight < 1 {
		c.MaxInflight = 4
	}
	return c
}

// sessionManager is the streaming tier's lifecycle layer: the bounded
// session registry, the idle sweeper, and the drain barrier Server.Close
// waits on. Sessions register through open (which enforces MaxSessions
// BEFORE the WebSocket upgrade, so a refusal is still a plain HTTP 503)
// and leave through their own teardown.
type sessionManager struct {
	srv *Server

	mu       sync.Mutex
	cfg      StreamConfig
	sessions map[*session]struct{}
	closed   bool

	nextID atomic.Uint64

	sweepStop chan struct{}
	sweepWG   sync.WaitGroup

	// teardowns counts registered sessions' teardown completions; the
	// drain barrier (closeAndDrain) waits on it so Close returns only
	// after every session's worker has finished and its socket is closed.
	teardowns sync.WaitGroup
}

func newSessionManager(srv *Server) *sessionManager {
	return &sessionManager{
		srv:      srv,
		cfg:      StreamConfig{}.withDefaults(),
		sessions: make(map[*session]struct{}),
	}
}

// configure replaces the tier's knobs, restarting the idle sweeper so a
// new interval takes effect. Existing sessions keep the bounds they were
// opened with; the new config governs sessions opened after the call.
func (m *sessionManager) configure(cfg StreamConfig) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.cfg = cfg.withDefaults()
	m.stopSweeperLocked()
	if len(m.sessions) > 0 {
		m.startSweeperLocked()
	}
	m.mu.Unlock()
}

// snapshotCfg returns the current config under the lock.
func (m *sessionManager) snapshotCfg() StreamConfig {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cfg
}

// openCount returns the live-session gauge.
func (m *sessionManager) openCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// open reserves a session slot, enforcing the MaxSessions bound and the
// shutdown fence, and registers the (not-yet-started) session. A non-empty
// return is the refusal the handler answers with 503 + Retry-After before
// any upgrade happens.
func (m *sessionManager) open(sess *session) (refusal string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return "server shutting down"
	}
	if len(m.sessions) >= m.cfg.MaxSessions {
		return fmt.Sprintf("session limit reached (%d open)", m.cfg.MaxSessions)
	}
	sess.touch() // the open itself is activity: never instantly "idle"
	m.sessions[sess] = struct{}{}
	m.teardowns.Add(1)
	m.srv.fleet.streamSession()
	if m.sweepStop == nil {
		m.startSweeperLocked()
	}
	return ""
}

// unregister drops a session from the registry: a torn-down one, or a
// reserved slot whose WebSocket upgrade failed — that session never
// started, so there is no teardown to run.
func (m *sessionManager) unregister(sess *session) {
	m.mu.Lock()
	delete(m.sessions, sess)
	m.mu.Unlock()
	m.teardowns.Done()
}

// startSweeperLocked launches the idle sweeper. Callers hold m.mu.
func (m *sessionManager) startSweeperLocked() {
	stop := make(chan struct{})
	m.sweepStop = stop
	interval := m.cfg.SweepInterval
	m.sweepWG.Add(1)
	go m.sweep(stop, interval)
}

// stopSweeperLocked signals the sweeper to exit. Callers hold m.mu; the
// goroutine is joined by closeAndDrain (or the next configure's restart is
// harmless — each sweeper watches its own stop channel).
func (m *sessionManager) stopSweeperLocked() {
	if m.sweepStop != nil {
		close(m.sweepStop)
		m.sweepStop = nil
	}
}

// sweep is the idle-eviction goroutine: every interval it closes sessions
// whose last frame activity is older than the idle timeout. Eviction is
// asynchronous (the session drains on its own goroutines), so one stuck
// session cannot stall the sweep of the others.
func (m *sessionManager) sweep(stop chan struct{}, interval time.Duration) {
	defer m.sweepWG.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			m.mu.Lock()
			idle := m.cfg.IdleTimeout
			var victims []*session
			for sess := range m.sessions {
				if time.Since(sess.lastActive()) > idle {
					victims = append(victims, sess)
				}
			}
			m.mu.Unlock()
			for _, sess := range victims {
				if sess.beginShutdown(ByeReasonIdle) {
					m.srv.fleet.streamEvict()
				}
			}
		}
	}
}

// closeAndDrain fences new sessions, gracefully closes every open one
// (buffered frames finish and their results are delivered before the bye),
// and blocks until all teardowns complete and the sweeper has exited.
// Server.Close runs this BEFORE closing the model pools, so draining
// sessions still have live batchers to execute against.
func (m *sessionManager) closeAndDrain() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.teardowns.Wait()
		m.sweepWG.Wait()
		return
	}
	m.closed = true
	m.stopSweeperLocked()
	sessions := make([]*session, 0, len(m.sessions))
	for sess := range m.sessions {
		sessions = append(sessions, sess)
	}
	m.mu.Unlock()
	for _, sess := range sessions {
		sess.beginShutdown(ByeReasonDrain)
	}
	m.teardowns.Wait()
	m.sweepWG.Wait()
}

// Bye reasons announced in the lifecycle's closing message.
const (
	ByeReasonIdle   = "idle"   // evicted by the idle sweeper
	ByeReasonDrain  = "drain"  // server shutting down (Close/SIGTERM)
	ByeReasonClosed = "closed" // client closed the connection first
)

// streamJob is one decoded frame waiting on a session's serial worker.
type streamJob struct {
	seq      int
	img      *imgproc.Image
	altitude float64
	deadline time.Time
}

// session is one camera's streaming connection: a reader goroutine
// decoding frames into a bounded buffer (the per-session backpressure
// point), a serial worker goroutine pushing each frame through the shared
// micro-batching path and folding the detections into this session's
// private tracker, and a teardown that drains both before the socket
// closes.
//
// The worker being SERIAL per session is what keeps tracker updates
// deterministic (the tracker is single-goroutine by contract) while the
// frames of many sessions still coalesce into cross-stream micro-batches
// inside Server.detect — batching stays model-identical to one-shot
// /detect because the tracker runs strictly after the batch, on this
// goroutine.
type session struct {
	id     string
	camera string
	sel    routeSel
	srv    *Server
	mgr    *sessionManager
	// conn is published atomically: the session is registered (and thus
	// visible to the sweeper and the drain) BEFORE the WebSocket upgrade
	// wires the connection, so beginShutdown may observe it nil.
	conn    atomic.Pointer[ws.Conn]
	tracker *tracking.Tracker

	// budget is the session-default per-frame deadline (0 = none); a
	// frame's own deadline_ms overrides it.
	budget   time.Duration
	policy   string
	inflight int

	frames chan *streamJob

	// ctx is cancelled when the client vanishes mid-stream — queued
	// frames then die at batch assembly (errCancelled → cancelled_total)
	// instead of burning kernel time on answers nobody reads.
	ctx    context.Context
	cancel context.CancelFunc

	active   atomic.Int64 // unix nanos of last frame activity
	draining atomic.Bool
	reason   atomic.Value // string: the bye reason

	workerWG sync.WaitGroup
	done     chan struct{} // closed when teardown completes
}

func (s *session) touch()                { s.active.Store(time.Now().UnixNano()) }
func (s *session) lastActive() time.Time { return time.Unix(0, s.active.Load()) }
func (s *session) setReason(r string)    { s.reason.CompareAndSwap(nil, r) }
func (s *session) byeReason() string {
	if r, ok := s.reason.Load().(string); ok && r != "" {
		return r
	}
	return ByeReasonClosed
}

// start wires the accepted connection and launches the session goroutines.
func (s *session) start(conn *ws.Conn) {
	s.conn.Store(conn)
	s.touch()
	shardID, _ := s.srv.Identity()
	cfg := s.mgr.snapshotCfg()
	_ = s.send(&StreamMessage{
		Type:          MsgHello,
		Session:       s.id,
		Camera:        s.camera,
		ShardID:       shardID,
		Model:         s.sel.explicit,
		MaxInflight:   s.inflight,
		IdleTimeoutMs: cfg.IdleTimeout.Seconds() * 1e3,
		DeadlineMs:    s.budget.Milliseconds(),
		Policy:        s.policy,
	})
	s.workerWG.Add(1)
	go s.worker()
	go s.reader()
	// A shutdown that began before the connection was published could not
	// kick the reader; re-check now that it can.
	if s.draining.Load() {
		s.kick()
	}
}

// beginShutdown flips the session into draining and kicks the reader off
// its blocking read; the reader's exit path runs the rest of the teardown.
// Returns false when the session was already shutting down.
func (s *session) beginShutdown(reason string) bool {
	if !s.draining.CompareAndSwap(false, true) {
		return false
	}
	s.setReason(reason)
	s.kick()
	return true
}

// kick unblocks a parked reader: a read deadline in the past fails the
// blocking ReadMessage with a timeout error, and the reader sees draining
// and exits gracefully. A no-op before the connection is published — start
// re-checks draining after publishing it.
func (s *session) kick() {
	if conn := s.conn.Load(); conn != nil {
		_ = conn.SetReadDeadline(time.Now())
	}
}

// reader is the session's receive loop: decode, validate, stamp the
// deadline, apply backpressure, hand to the worker. It owns the frames
// channel (sole sender) and triggers teardown on exit, whatever the cause.
func (s *session) reader() {
	defer func() {
		close(s.frames)
		go s.teardown()
	}()
	for {
		msg, err := s.conn.Load().ReadMessage()
		if err != nil {
			if s.draining.Load() || errors.Is(err, ws.ErrPeerClosed) {
				// Graceful: eviction/drain kicked us, or the client said
				// goodbye. Buffered frames still finish.
				return
			}
			// The client vanished mid-stream: nothing will read the
			// results, so let queued frames die at batch assembly.
			s.setReason(ByeReasonClosed)
			s.cancel()
			return
		}
		s.touch()
		if s.draining.Load() {
			return
		}
		s.handleFrame(msg)
	}
}

// handleFrame admits one raw frame message into the session's buffer.
func (s *session) handleFrame(raw []byte) {
	frame, errMsg := decodeStreamFrame(raw)
	if errMsg != nil {
		_ = s.send(errMsg)
		return
	}
	s.srv.fleet.streamFrame()
	// The server-wide in-flight cap bounds decoded frames held across ALL
	// surfaces (HTTP + sessions): a session frame over the cap is shed
	// in-band the way HTTP sheds with 429 before reading the body.
	if !s.srv.tryAcquire() {
		s.srv.fleet.streamReject()
		_ = s.send(&StreamMessage{Type: MsgReject, Seq: frame.Seq, Code: 429, Error: msgInflightFull})
		return
	}
	budget := s.budget
	if frame.DeadlineMs > 0 {
		budget = time.Duration(frame.DeadlineMs) * time.Millisecond
	}
	altitude := frame.Altitude
	if altitude == 0 {
		altitude = s.sel.altitude
	}
	job := &streamJob{
		seq:      frame.Seq,
		img:      &imgproc.Image{W: frame.Width, H: frame.Height, Pix: frame.Pixels},
		altitude: altitude,
		deadline: stampDeadline(budget),
	}
	select {
	case s.frames <- job:
		return
	default:
	}
	// Buffer full: apply the session's backpressure policy.
	if s.policy == PolicyDrop {
		select {
		case old := <-s.frames:
			old.img = nil
			s.srv.release()
			s.srv.fleet.streamDrop()
			_ = s.send(&StreamMessage{Type: MsgDrop, Seq: old.seq, Code: 429,
				Error: "frame displaced by a newer one (drop-oldest backpressure)"})
		default:
			// The worker won the race and emptied a slot; fall through.
		}
		select {
		case s.frames <- job:
			return
		default:
			// Still full (another producer raced us); reject the new frame.
		}
	}
	job.img = nil
	s.srv.release()
	s.srv.fleet.streamReject()
	_ = s.send(&StreamMessage{Type: MsgReject, Seq: frame.Seq, Code: 429,
		Error: "session backlog full"})
}

// worker is the session's serial execution loop: each frame rides the
// shared micro-batching path (coalescing with other sessions' frames), and
// only after its batch has executed does the tracker fold the detections
// in — on this goroutine, so tracker state needs no locking.
func (s *session) worker() {
	defer s.workerWG.Done()
	for job := range s.frames {
		s.process(job)
		s.srv.release()
	}
}

// process runs one frame through infer and writes its in-band answer. The
// route is re-resolved per frame (sessions survive hot swaps — the
// response's generation tag shows the flip) and never browned out; a
// failure goes out under infer's status code, a success after the tracker
// has folded the detections in.
func (s *session) process(job *streamJob) {
	out := s.srv.infer(s.ctx, routeSel{explicit: s.sel.explicit, altitude: job.altitude}, job.img, job.deadline, false)
	switch out.status {
	case http.StatusOK:
		// The result is assembled below the switch.
	case statusClientClosedRequest:
		// Counted in cancelled_total at the batch-assembly drop; the client
		// is gone (or going), so no in-band answer either.
		return
	case http.StatusTooManyRequests:
		_ = s.send(&StreamMessage{Type: MsgReject, Seq: job.seq, Code: out.status, Error: out.msg})
		return
	default:
		_ = s.send(&StreamMessage{Type: MsgError, Seq: job.seq, Code: out.status, Error: out.msg})
		return
	}
	tracks := s.tracker.Update(out.resp.dets)
	s.touch()
	_ = s.send(&StreamMessage{
		Type:       MsgResult,
		Seq:        job.seq,
		Frame:      s.tracker.Frame(),
		Model:      out.pool.name,
		Generation: out.pool.gen,
		BatchSize:  out.resp.batch,
		LatencyMs:  out.lat.Seconds() * 1e3,
		Detections: toJSON(out.resp.dets),
		Tracks:     toTrackJSON(tracks),
	})
}

// teardown joins the worker (buffered frames have finished), flushes the
// tracker through the retire hook, announces the bye, closes the socket
// and unregisters. Runs on its own goroutine, triggered by the reader's
// exit — the one path every shutdown cause funnels through.
func (s *session) teardown() {
	s.workerWG.Wait()
	s.tracker.Flush()
	_ = s.send(&StreamMessage{Type: MsgBye, Session: s.id, Reason: s.byeReason()})
	_ = s.conn.Load().WriteClose(1000, s.byeReason())
	_ = s.conn.Load().Close()
	s.cancel()
	s.mgr.unregister(s)
	close(s.done)
}

// send marshals and writes one server→client message.
func (s *session) send(msg *StreamMessage) error {
	return s.conn.Load().WriteMessage(mustMarshal(msg))
}
