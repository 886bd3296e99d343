package serve_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/imgproc"
	"repro/internal/network"
	"repro/internal/serve"
	"repro/internal/tracking"
	"repro/internal/ws"
)

// dialStream opens a streaming session against the test server.
func dialStream(t *testing.T, ts *httptest.Server, query string) *ws.Conn {
	t.Helper()
	conn, err := ws.Dial(ts.Listener.Addr().String(), "/stream"+query, nil, 5*time.Second)
	if err != nil {
		t.Fatalf("dial /stream%s: %v", query, err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func readMsg(t *testing.T, conn *ws.Conn) serve.StreamMessage {
	t.Helper()
	raw, err := conn.ReadMessage()
	if err != nil {
		t.Fatalf("read stream message: %v", err)
	}
	var msg serve.StreamMessage
	if err := json.Unmarshal(raw, &msg); err != nil {
		t.Fatalf("decode stream message %q: %v", raw, err)
	}
	return msg
}

func readHello(t *testing.T, conn *ws.Conn) serve.StreamMessage {
	t.Helper()
	msg := readMsg(t, conn)
	if msg.Type != serve.MsgHello {
		t.Fatalf("first message type %q, want %q", msg.Type, serve.MsgHello)
	}
	return msg
}

func sendFrame(t *testing.T, conn *ws.Conn, seq int, img *imgproc.Image, deadlineMs int64) {
	t.Helper()
	body, err := json.Marshal(serve.StreamFrame{Seq: seq, Width: img.W, Height: img.H, Pixels: img.Pix, DeadlineMs: deadlineMs})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteMessage(body); err != nil {
		t.Fatalf("send frame %d: %v", seq, err)
	}
}

// closeSession performs the client side of a graceful close and drains the
// connection until the server's answering close frame arrives.
func closeSession(t *testing.T, conn *ws.Conn) {
	t.Helper()
	_ = conn.WriteClose(1000, "done")
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := conn.ReadMessage(); err != nil {
			return
		}
	}
	t.Fatal("no close acknowledgement within 5s")
}

// waitSessions polls the live-session gauge down to want.
func waitSessions(t *testing.T, srv *serve.Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.StreamSessions() != want {
		if time.Now().After(deadline) {
			t.Fatalf("sessions open = %d, want %d after 5s", srv.StreamSessions(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitFleet polls srv's fleet Stats until ok holds.
func waitFleet(t *testing.T, srv *serve.Server, what string, ok func(serve.Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !ok(srv.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("waited 5s for %s", what)
		}
		runtime.Gosched()
	}
}

// batchOpen holds once a batch has started executing: busy time counts an
// open span, and warm-up forwards never touch the metrics.
func batchOpen(s serve.Stats) bool { return s.BusySeconds > 0 }

// framesReceived holds once the sessions have received n frames.
func framesReceived(n uint64) func(serve.Stats) bool {
	return func(s serve.Stats) bool { return s.StreamFramesTotal >= n }
}

// streamOracle replays one session's frame sequence through single-image
// inference and a fresh tracker — the serial ground truth a concurrent
// session must match byte for byte. Empty slices are normalized to nil to
// match the wire round-trip (omitempty).
func streamOracle(t *testing.T, net *network.Network, frames []*imgproc.Image) ([][]serve.DetectionJSON, [][]serve.TrackJSON) {
	t.Helper()
	replica := net.CloneForInference()
	trk := tracking.New(tracking.Config{})
	dets := make([][]serve.DetectionJSON, len(frames))
	tracks := make([][]serve.TrackJSON, len(frames))
	for i, img := range frames {
		ds, err := replica.Detect(img.ToTensor(), testThresh, testNMS)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ds {
			dets[i] = append(dets[i], serve.DetectionJSON{X: d.Box.X, Y: d.Box.Y, W: d.Box.W, H: d.Box.H, Class: d.Class, Score: d.Score})
		}
		for _, tr := range trk.Update(ds) {
			tracks[i] = append(tracks[i], serve.TrackJSON{
				ID: tr.ID, X: tr.Box.X, Y: tr.Box.Y, W: tr.Box.W, H: tr.Box.H,
				Class: tr.Class, Score: tr.Score, VX: tr.VX, VY: tr.VY,
				Hits: tr.Hits, Age: tr.LastFrame - tr.FirstFrame,
			})
		}
	}
	return dets, tracks
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStreamSessionsIdentity is the streaming acceptance test: 8 concurrent
// sessions pipeline frames through the shared micro-batcher, every result's
// detections AND tracks must be byte-identical to a serial per-session
// oracle (fresh tracker + single-image inference), track ids must be stable
// within each session, and the batch histogram must show cross-session
// coalescing (mean batch size above the bar).
func TestStreamSessionsIdentity(t *testing.T) {
	net := buildNet(t)
	const sessions, perSession, distinct = 8, 6, 4
	frames := testFrames(distinct)

	// Per-session frame sequences (rotated per session, like the HTTP
	// identity test) and their serial oracles.
	seqs := make([][]*imgproc.Image, sessions)
	wantDets := make([][][]serve.DetectionJSON, sessions)
	wantTracks := make([][][]serve.TrackJSON, sessions)
	for c := 0; c < sessions; c++ {
		seqs[c] = make([]*imgproc.Image, perSession)
		for r := 0; r < perSession; r++ {
			seqs[c][r] = frames[(c+r)%distinct]
		}
		wantDets[c], wantTracks[c] = streamOracle(t, net, seqs[c])
	}

	// Every client pipelines its whole sequence, and coalesce holds each
	// batch until every open session has a frame admitted. A session
	// executes its frames one at a time, so it has at most one admitted and
	// not yet executed.
	srv := newServer(t, net, 1, serve.Config{MaxBatch: 8, QueueDepth: 64, Warm: true})
	srv.ConfigureStreams(serve.StreamConfig{MaxInflight: perSession})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	conns := make([]*ws.Conn, sessions)
	for c := range conns {
		conns[c] = dialStream(t, ts, fmt.Sprintf("?camera=cam%d", c))
	}
	errCh := make(chan error, sessions*perSession)
	coalesce(t, srv, sessions, func(c int) {
		conn := conns[c]
		hello := readHello(t, conn)
		if hello.Camera != fmt.Sprintf("cam%d", c) {
			errCh <- fmt.Errorf("session %d: hello camera %q", c, hello.Camera)
			return
		}
		for r := 0; r < perSession; r++ {
			sendFrame(t, conn, r+1, seqs[c][r], 0)
		}
		for r := 0; r < perSession; r++ {
			msg := readMsg(t, conn)
			if msg.Type != serve.MsgResult || msg.Seq != r+1 {
				errCh <- fmt.Errorf("session %d frame %d: got type %q seq %d (err %q)", c, r+1, msg.Type, msg.Seq, msg.Error)
				return
			}
			if msg.Frame != r+1 {
				errCh <- fmt.Errorf("session %d: tracker frame %d after %d updates", c, msg.Frame, r+1)
				return
			}
			if got, want := mustJSON(t, msg.Detections), mustJSON(t, wantDets[c][r]); !bytes.Equal(got, want) {
				errCh <- fmt.Errorf("session %d frame %d: detections differ from serial oracle\ngot:  %s\nwant: %s", c, r+1, got, want)
				return
			}
			if got, want := mustJSON(t, msg.Tracks), mustJSON(t, wantTracks[c][r]); !bytes.Equal(got, want) {
				errCh <- fmt.Errorf("session %d frame %d: tracks differ from serial oracle\ngot:  %s\nwant: %s", c, r+1, got, want)
				return
			}
		}
		closeSession(t, conn)
	})
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	waitSessions(t, srv, 0)

	stats := srv.Stats()
	if stats.StreamFramesTotal != sessions*perSession {
		t.Errorf("stream_frames_total %d, want %d", stats.StreamFramesTotal, sessions*perSession)
	}
	if stats.SessionsTotal != sessions {
		t.Errorf("sessions_total %d, want %d", stats.SessionsTotal, sessions)
	}
	if want := batchBar(); stats.MeanBatchSize <= want {
		t.Errorf("mean batch size %.2f, want > %.1f (hist %v) — sessions are not coalescing cross-stream", stats.MeanBatchSize, want, stats.BatchHist)
	}
}

// TestStreamMaxSessions pins the session bound: opens over the cap are
// refused with a plain-HTTP 503 + Retry-After before any upgrade, and a
// slot freed by a graceful close is reusable.
func TestStreamMaxSessions(t *testing.T) {
	net := buildNet(t)
	srv := newServer(t, net, 1, serve.Config{MaxBatch: 4, QueueDepth: 16, Warm: true})
	srv.ConfigureStreams(serve.StreamConfig{MaxSessions: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	c1 := dialStream(t, ts, "")
	readHello(t, c1)
	c2 := dialStream(t, ts, "")
	readHello(t, c2)

	_, err := ws.Dial(ts.Listener.Addr().String(), "/stream", nil, 2*time.Second)
	var he *ws.HandshakeError
	if !errors.As(err, &he) {
		t.Fatalf("third open: got %v, want a handshake rejection", err)
	}
	if he.StatusCode != 503 {
		t.Fatalf("third open: status %d, want 503", he.StatusCode)
	}
	if he.RetryAfter == "" {
		t.Error("503 rejection is missing Retry-After")
	}

	closeSession(t, c1)
	waitSessions(t, srv, 1)
	c3 := dialStream(t, ts, "")
	readHello(t, c3)
	if got := srv.StreamSessions(); got != 2 {
		t.Errorf("sessions open %d, want 2", got)
	}
}

// TestStreamIdleEviction pins the sweeper: a session with no frame traffic
// past the idle timeout is closed with an in-band bye "idle", the eviction
// counter moves, and the session's goroutines are reclaimed while the
// server keeps running.
func TestStreamIdleEviction(t *testing.T) {
	net := buildNet(t)
	frames := testFrames(1)
	srv := newServer(t, net, 1, serve.Config{MaxBatch: 4, QueueDepth: 16, Warm: true})
	srv.ConfigureStreams(serve.StreamConfig{IdleTimeout: 150 * time.Millisecond, SweepInterval: 10 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	base := goroutinesIn("repro/internal/serve.")

	conn := dialStream(t, ts, "")
	readHello(t, conn)
	sendFrame(t, conn, 1, frames[0], 0)
	if msg := readMsg(t, conn); msg.Type != serve.MsgResult {
		t.Fatalf("frame answer type %q (err %q), want result", msg.Type, msg.Error)
	}

	// Go quiet and wait for the sweeper's verdict.
	msg := readMsg(t, conn)
	if msg.Type != serve.MsgBye || msg.Reason != serve.ByeReasonIdle {
		t.Fatalf("got type %q reason %q, want bye/idle", msg.Type, msg.Reason)
	}
	if _, err := conn.ReadMessage(); !errors.Is(err, ws.ErrPeerClosed) {
		t.Fatalf("after bye: err %v, want ErrPeerClosed", err)
	}
	waitSessions(t, srv, 0)
	if got := srv.Stats().SessionsEvictedIdle; got != 1 {
		t.Errorf("sessions_evicted_idle %d, want 1", got)
	}
	// Everything the session spawned is reclaimed; only the idle sweeper
	// (which outlives its sessions by design) remains above the baseline.
	if n := waitGoroutinesIn("repro/internal/serve.", base+1, 3*time.Second); n > base+1 {
		t.Errorf("%d serve goroutines after eviction, want <= %d", n, base+1)
	}
}

// TestStreamBackpressureReject pins the reject policy: with a one-slot
// buffer and the kernel stalled, overflow frames get in-band 429s while the
// backlog executes untouched once the stall lifts.
func TestStreamBackpressureReject(t *testing.T) {
	net := buildNet(t)
	frames := testFrames(1)
	srv := newServer(t, net, 1, serve.Config{MaxBatch: 1, QueueDepth: 16, Warm: true})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if err := faults.Arm("engine.execute=stall"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faults.Disarm)

	conn := dialStream(t, ts, "?inflight=1&policy=reject")
	hello := readHello(t, conn)
	if hello.MaxInflight != 1 || hello.Policy != serve.PolicyReject {
		t.Fatalf("hello knobs inflight=%d policy=%q, want 1/reject", hello.MaxInflight, hello.Policy)
	}

	sendFrame(t, conn, 1, frames[0], 0) // into the worker, stalls in the kernel
	waitFleet(t, srv, "frame 1's batch to start", batchOpen)
	sendFrame(t, conn, 2, frames[0], 0) // buffered
	waitFleet(t, srv, "frame 2 to arrive", framesReceived(2))
	sendFrame(t, conn, 3, frames[0], 0) // buffer full → reject
	sendFrame(t, conn, 4, frames[0], 0) // buffer full → reject

	gotReject := map[int]bool{}
	for len(gotReject) < 2 {
		msg := readMsg(t, conn)
		if msg.Type != serve.MsgReject || msg.Code != 429 {
			t.Fatalf("got type %q code %d seq %d, want reject/429", msg.Type, msg.Code, msg.Seq)
		}
		gotReject[msg.Seq] = true
	}
	if !gotReject[3] || !gotReject[4] {
		t.Fatalf("rejected seqs %v, want 3 and 4", gotReject)
	}

	faults.Disarm()
	for _, want := range []int{1, 2} {
		msg := readMsg(t, conn)
		if msg.Type != serve.MsgResult || msg.Seq != want {
			t.Fatalf("after disarm: type %q seq %d (err %q), want result seq %d", msg.Type, msg.Seq, msg.Error, want)
		}
	}
	closeSession(t, conn)
	waitSessions(t, srv, 0)
	if got := srv.Stats().StreamFramesRejected; got != 2 {
		t.Errorf("stream_frames_rejected %d, want 2", got)
	}
}

// TestStreamBackpressureDropOldest pins the drop policy: overflow displaces
// the OLDEST buffered frame (announced in-band) so the freshest frame is
// the one that executes.
func TestStreamBackpressureDropOldest(t *testing.T) {
	net := buildNet(t)
	frames := testFrames(1)
	srv := newServer(t, net, 1, serve.Config{MaxBatch: 1, QueueDepth: 16, Warm: true})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if err := faults.Arm("engine.execute=stall"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faults.Disarm)

	conn := dialStream(t, ts, "?inflight=1&policy=drop")
	readHello(t, conn)
	sendFrame(t, conn, 1, frames[0], 0) // executing (stalled)
	waitFleet(t, srv, "frame 1's batch to start", batchOpen)
	sendFrame(t, conn, 2, frames[0], 0) // buffered
	waitFleet(t, srv, "frame 2 to arrive", framesReceived(2))
	sendFrame(t, conn, 3, frames[0], 0) // displaces 2
	sendFrame(t, conn, 4, frames[0], 0) // displaces 3

	gotDrop := map[int]bool{}
	for len(gotDrop) < 2 {
		msg := readMsg(t, conn)
		if msg.Type != serve.MsgDrop {
			t.Fatalf("got type %q seq %d, want drop", msg.Type, msg.Seq)
		}
		gotDrop[msg.Seq] = true
	}
	if !gotDrop[2] || !gotDrop[3] {
		t.Fatalf("dropped seqs %v, want 2 and 3", gotDrop)
	}

	faults.Disarm()
	for _, want := range []int{1, 4} {
		msg := readMsg(t, conn)
		if msg.Type != serve.MsgResult || msg.Seq != want {
			t.Fatalf("after disarm: type %q seq %d (err %q), want result seq %d", msg.Type, msg.Seq, msg.Error, want)
		}
	}
	closeSession(t, conn)
	waitSessions(t, srv, 0)
	if got := srv.Stats().StreamFramesDropped; got != 2 {
		t.Errorf("stream_frames_dropped %d, want 2", got)
	}
}

// TestStreamCancelledFrameDropped is the regression test for session frame
// cancellation: when the client vanishes mid-stream, frames still queued
// behind the executing one must die at batch assembly — counted in the
// existing cancelled_total — and never reach the kernel.
func TestStreamCancelledFrameDropped(t *testing.T) {
	net := buildNet(t)
	frames := testFrames(1)
	// MaxBatch 1 so the stalled frame occupies the kernel alone and the
	// queued one cannot ride its batch.
	srv := newServer(t, net, 1, serve.Config{MaxBatch: 1, QueueDepth: 16, Warm: true})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if err := faults.Arm("engine.execute=stall"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faults.Disarm)

	conn := dialStream(t, ts, "")
	readHello(t, conn)
	sendFrame(t, conn, 1, frames[0], 0) // reaches the kernel, stalls
	waitFleet(t, srv, "frame 1's batch to start", batchOpen)
	sendFrame(t, conn, 2, frames[0], 0) // buffered behind it
	waitFleet(t, srv, "frame 2 to arrive", framesReceived(2))

	// The client vanishes without a close handshake: the reader cancels the
	// session context, so frame 2 must be dropped at batch assembly. The
	// stall is released only after the reader has had time to notice the
	// dead socket — otherwise frame 2 races the cancellation into the
	// kernel. Nothing outside the session shows the reader's exit while the
	// kernel is stalled (the session deregisters only once its worker is
	// done), so this one wait stays a sleep.
	conn.Close()
	time.Sleep(150 * time.Millisecond)
	faults.Disarm()
	waitSessions(t, srv, 0)

	deadline := time.Now().Add(3 * time.Second)
	for srv.Stats().CancelledTotal < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("cancelled_total %d after 3s, want 1", srv.Stats().CancelledTotal)
		}
		time.Sleep(5 * time.Millisecond)
	}
	stats := srv.Stats()
	if stats.CancelledTotal != 1 {
		t.Errorf("cancelled_total %d, want 1", stats.CancelledTotal)
	}
	// Only the first frame ever executed: the batch histogram accounts for
	// exactly one image, proving the cancelled frame never hit the kernel.
	executed := 0
	for size, n := range stats.BatchHist {
		executed += size * n
	}
	if executed != 1 {
		t.Errorf("kernel executed %d images (hist %v), want 1 — the cancelled frame reached the kernel", executed, stats.BatchHist)
	}
}

// TestStreamDeadlineInheritance pins session deadline semantics: a
// session-level deadline_ms applies to every frame by default, a frame's
// own deadline_ms overrides it, and a doomed frame dies with an in-band 504
// counted in deadline_exceeded_total.
func TestStreamDeadlineInheritance(t *testing.T) {
	net := buildNet(t)
	frames := testFrames(1)
	srv := newServer(t, net, 1, serve.Config{MaxBatch: 4, QueueDepth: 16, Warm: true})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Inflate the service-time estimate so the doomed-drop check (which
	// needs a warm P50) has something to compare 5ms against.
	if err := faults.Arm("engine.execute=slow:30ms"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faults.Disarm)
	warm := dialStream(t, ts, "")
	readHello(t, warm)
	for i := 1; i <= 2; i++ {
		sendFrame(t, warm, i, frames[0], 0)
		if msg := readMsg(t, warm); msg.Type != serve.MsgResult {
			t.Fatalf("warm-up frame %d: type %q (err %q)", i, msg.Type, msg.Error)
		}
	}

	conn := dialStream(t, ts, "?deadline_ms=5")
	hello := readHello(t, conn)
	if hello.DeadlineMs != 5 {
		t.Fatalf("hello deadline_ms %d, want 5", hello.DeadlineMs)
	}
	// Frame without its own deadline inherits the hopeless session default.
	sendFrame(t, conn, 1, frames[0], 0)
	if msg := readMsg(t, conn); msg.Type != serve.MsgError || msg.Code != 504 {
		t.Fatalf("inherited deadline: type %q code %d (err %q), want error/504", msg.Type, msg.Code, msg.Error)
	}
	// A generous per-frame override beats the session default.
	sendFrame(t, conn, 2, frames[0], 2000)
	if msg := readMsg(t, conn); msg.Type != serve.MsgResult || msg.Seq != 2 {
		t.Fatalf("override deadline: type %q seq %d (err %q), want result", msg.Type, msg.Seq, msg.Error)
	}
	// And a per-frame deadline works on a session with no default at all.
	sendFrame(t, warm, 3, frames[0], 1)
	if msg := readMsg(t, warm); msg.Type != serve.MsgError || msg.Code != 504 {
		t.Fatalf("per-frame deadline: type %q code %d (err %q), want error/504", msg.Type, msg.Code, msg.Error)
	}

	closeSession(t, conn)
	closeSession(t, warm)
	waitSessions(t, srv, 0)
	if got := srv.Stats().DeadlineExceededTotal; got < 2 {
		t.Errorf("deadline_exceeded_total %d, want >= 2", got)
	}
}

// TestStreamBadFramesInBand pins in-band validation: malformed frames get
// per-frame 400 answers and the session survives them.
func TestStreamBadFramesInBand(t *testing.T) {
	net := buildNet(t)
	frames := testFrames(1)
	srv := newServer(t, net, 1, serve.Config{MaxBatch: 4, QueueDepth: 16, Warm: true})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	conn := dialStream(t, ts, "")
	readHello(t, conn)

	if err := conn.WriteMessage([]byte("{not json")); err != nil {
		t.Fatal(err)
	}
	if msg := readMsg(t, conn); msg.Type != serve.MsgError || msg.Code != 400 {
		t.Fatalf("garbage frame: type %q code %d, want error/400", msg.Type, msg.Code)
	}
	body, _ := json.Marshal(serve.StreamFrame{Seq: 7, Width: 8, Height: 8, Pixels: make([]float32, 5)})
	if err := conn.WriteMessage(body); err != nil {
		t.Fatal(err)
	}
	if msg := readMsg(t, conn); msg.Type != serve.MsgError || msg.Code != 400 || msg.Seq != 7 {
		t.Fatalf("short pixels: type %q code %d seq %d, want error/400/7", msg.Type, msg.Code, msg.Seq)
	}
	// A deadline_ms that would overflow time.Duration is malformed (400),
	// not a negative budget that expires on arrival (504).
	sendFrame(t, conn, 9, frames[0], 9223372036855)
	if msg := readMsg(t, conn); msg.Type != serve.MsgError || msg.Code != 400 || msg.Seq != 9 {
		t.Fatalf("over-budget deadline_ms: type %q code %d seq %d, want error/400/9", msg.Type, msg.Code, msg.Seq)
	}
	// A negative deadline_ms is malformed too, the way the HTTP path answers
	// a budget <= 0 — not a silent "inherit the session budget".
	sendFrame(t, conn, 10, frames[0], -5)
	if msg := readMsg(t, conn); msg.Type != serve.MsgError || msg.Code != 400 || msg.Seq != 10 {
		t.Fatalf("negative deadline_ms: type %q code %d seq %d, want error/400/10", msg.Type, msg.Code, msg.Seq)
	}
	// Refusals from inside the decoder echo the seq read before them: a
	// pixel array running past the declared 1x1 (refused at its fourth
	// element, not materialised), and bytes after the closing brace —
	// garbage or a second object — which /detect refuses the same way.
	valid := `"width":1,"height":1,"pixels":[0,0,0]}`
	for i, body := range []string{
		`{"seq":11,"width":1,"height":1,"pixels":[` + strings.Repeat("0,", 1<<20) + `0]}`,
		`{"seq":12,` + valid + ` x`,
		`{"seq":13,` + valid + `{"seq":14,` + valid,
	} {
		seq := 11 + i
		if err := conn.WriteMessage([]byte(body)); err != nil {
			t.Fatal(err)
		}
		if msg := readMsg(t, conn); msg.Type != serve.MsgError || msg.Code != 400 || msg.Seq != seq {
			t.Fatalf("bad frame %d: type %q code %d seq %d, want error/400/%d", seq, msg.Type, msg.Code, msg.Seq, seq)
		}
	}
	sendFrame(t, conn, 8, frames[0], 0)
	if msg := readMsg(t, conn); msg.Type != serve.MsgResult || msg.Seq != 8 {
		t.Fatalf("valid frame after errors: type %q seq %d (err %q), want result", msg.Type, msg.Seq, msg.Error)
	}
	closeSession(t, conn)
}

// TestStreamDrainOnClose pins graceful shutdown: Server.Close with open
// sessions delivers a bye "drain" and a clean close frame to every client,
// returns only after all sessions tore down, and leaves no serve goroutine
// behind. New opens after Close are refused with 503.
func TestStreamDrainOnClose(t *testing.T) {
	base := goroutinesIn("repro/internal/serve.")
	net := buildNet(t)
	frames := testFrames(2)
	srv := newServer(t, net, 1, serve.Config{MaxBatch: 4, QueueDepth: 16, Warm: true})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	conns := make([]*ws.Conn, 2)
	for i := range conns {
		conns[i] = dialStream(t, ts, fmt.Sprintf("?camera=cam%d", i))
		readHello(t, conns[i])
		sendFrame(t, conns[i], 1, frames[i], 0)
		if msg := readMsg(t, conns[i]); msg.Type != serve.MsgResult {
			t.Fatalf("session %d: type %q (err %q), want result", i, msg.Type, msg.Error)
		}
	}

	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	for i, conn := range conns {
		msg := readMsg(t, conn)
		if msg.Type != serve.MsgBye || msg.Reason != serve.ByeReasonDrain {
			t.Fatalf("session %d: type %q reason %q, want bye/drain", i, msg.Type, msg.Reason)
		}
		if _, err := conn.ReadMessage(); !errors.Is(err, ws.ErrPeerClosed) {
			t.Fatalf("session %d after bye: err %v, want ErrPeerClosed", i, err)
		}
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close did not return within 5s of session drain")
	}

	_, err := ws.Dial(ts.Listener.Addr().String(), "/stream", nil, 2*time.Second)
	var he *ws.HandshakeError
	if !errors.As(err, &he) || he.StatusCode != 503 {
		t.Fatalf("open after Close: got %v, want a 503 handshake rejection", err)
	}
	if n := waitGoroutinesIn("repro/internal/serve.", base, 3*time.Second); n > base {
		t.Errorf("%d serve goroutines after Close, want <= %d", n, base)
	}
}

// TestStreamDisconnectGoroutineHygiene pins teardown on the ugly path: a
// client that vanishes mid-frame (kernel stalled, frames queued) must not
// leak the session's goroutines once the stall lifts.
func TestStreamDisconnectGoroutineHygiene(t *testing.T) {
	net := buildNet(t)
	frames := testFrames(1)
	srv := newServer(t, net, 1, serve.Config{MaxBatch: 1, QueueDepth: 16, Warm: true})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	base := goroutinesIn("repro/internal/serve.")

	if err := faults.Arm("engine.execute=stall"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faults.Disarm)

	conn := dialStream(t, ts, "")
	readHello(t, conn)
	sendFrame(t, conn, 1, frames[0], 0)
	waitFleet(t, srv, "frame 1's batch to start", batchOpen)
	sendFrame(t, conn, 2, frames[0], 0)
	conn.Close()
	faults.Disarm()

	waitSessions(t, srv, 0)
	// +1 for the idle sweeper, which keeps running by design.
	if n := waitGoroutinesIn("repro/internal/serve.", base+1, 3*time.Second); n > base+1 {
		t.Errorf("%d serve goroutines after disconnect, want <= %d", n, base+1)
	}
}

// TestStreamSoak is the nightly churn test (set DRONET_SOAK=30s): 16
// client goroutines open, stream, idle out, vanish and gracefully close
// sessions against a small session cap for the whole duration; the server
// must stay consistent and leak nothing. Run under -race.
func TestStreamSoak(t *testing.T) {
	spec := os.Getenv("DRONET_SOAK")
	if spec == "" {
		t.Skip("set DRONET_SOAK=30s to run the streaming soak")
	}
	dur, err := time.ParseDuration(spec)
	if err != nil {
		t.Fatalf("bad DRONET_SOAK %q: %v", spec, err)
	}
	net := buildNet(t)
	frames := testFrames(4)
	srv := newServer(t, net, 2, serve.Config{MaxBatch: 8, QueueDepth: 128, Warm: true})
	srv.ConfigureStreams(serve.StreamConfig{MaxSessions: 12, IdleTimeout: 250 * time.Millisecond, SweepInterval: 25 * time.Millisecond, MaxInflight: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	base := goroutinesIn("repro/internal/serve.")

	stop := time.Now().Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for iter := 0; time.Now().Before(stop); iter++ {
				conn, err := ws.Dial(ts.Listener.Addr().String(), fmt.Sprintf("/stream?camera=soak%d&policy=drop", c), nil, 5*time.Second)
				var he *ws.HandshakeError
				if errors.As(err, &he) {
					// Session cap: 16 clients over 12 slots shed here.
					time.Sleep(20 * time.Millisecond)
					continue
				}
				if err != nil {
					t.Errorf("soak client %d: dial: %v", c, err)
					return
				}
				mode := (c + iter) % 4
				func() {
					defer conn.Close()
					deadline := time.Now().Add(10 * time.Second)
					nframes := 3 + (iter % 5)
					for f := 1; f <= nframes; f++ {
						img := frames[(c+iter+f)%len(frames)]
						body, _ := json.Marshal(serve.StreamFrame{Seq: f, Width: img.W, Height: img.H, Pixels: img.Pix, DeadlineMs: int64(f%2) * 500})
						if conn.WriteMessage(body) != nil {
							return
						}
					}
					if mode == 2 {
						return // vanish mid-stream: cancellation path
					}
					// Read until the server answers everything or says bye.
					answered := 0
					for answered <= nframes && time.Now().Before(deadline) {
						raw, err := conn.ReadMessage()
						if err != nil {
							return
						}
						var msg serve.StreamMessage
						if json.Unmarshal(raw, &msg) != nil || msg.Type == serve.MsgBye {
							return
						}
						answered++
					}
					switch mode {
					case 1:
						// Idle out: wait for the sweeper's bye.
						for time.Now().Before(deadline) {
							if _, err := conn.ReadMessage(); err != nil {
								return
							}
						}
					default:
						_ = conn.WriteClose(1000, "soak")
						for time.Now().Before(deadline) {
							if _, err := conn.ReadMessage(); err != nil {
								return
							}
						}
					}
				}()
			}
		}(c)
	}
	wg.Wait()
	waitSessions(t, srv, 0)
	if n := waitGoroutinesIn("repro/internal/serve.", base+1, 5*time.Second); n > base+1 {
		t.Errorf("%d serve goroutines after soak, want <= %d", n, base+1)
	}
	stats := srv.Stats()
	if stats.SessionsTotal == 0 || stats.StreamFramesTotal == 0 {
		t.Errorf("soak moved no traffic: %+v", stats)
	}
	t.Logf("soak: %d sessions, %d frames (%d dropped, %d rejected), %d evictions, %d cancelled, mean batch %.2f",
		stats.SessionsTotal, stats.StreamFramesTotal, stats.StreamFramesDropped,
		stats.StreamFramesRejected, stats.SessionsEvictedIdle, stats.CancelledTotal, stats.MeanBatchSize)
}
