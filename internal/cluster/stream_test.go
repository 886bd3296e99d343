package cluster_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/imgproc"
	"repro/internal/serve"
	"repro/internal/ws"
)

func dialProxyStream(t *testing.T, ts *httptest.Server, query string) *ws.Conn {
	t.Helper()
	conn, err := ws.Dial(ts.Listener.Addr().String(), "/stream"+query, nil, 5*time.Second)
	if err != nil {
		t.Fatalf("dial /stream%s: %v", query, err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func readStreamMsg(t *testing.T, conn *ws.Conn) serve.StreamMessage {
	t.Helper()
	raw, err := conn.ReadMessage()
	if err != nil {
		t.Fatalf("read stream message: %v", err)
	}
	var msg serve.StreamMessage
	if err := json.Unmarshal(raw, &msg); err != nil {
		t.Fatalf("decode %q: %v", raw, err)
	}
	return msg
}

func sendStreamFrame(t *testing.T, conn *ws.Conn, seq int, img *imgproc.Image) {
	t.Helper()
	body, err := json.Marshal(serve.StreamFrame{Seq: seq, Width: img.W, Height: img.H, Pixels: img.Pix})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteMessage(body); err != nil {
		t.Fatalf("send frame %d: %v", seq, err)
	}
}

// TestStreamAffinityAndFailoverResume is the cluster streaming acceptance
// test: sessions for the same camera pin to the camera's ring owner; when
// that shard drains mid-session, the proxy re-homes the session to the next
// live shard, injects the resumed marker (resumed:true, the new shard_id),
// and the replacement session's tracker starts fresh.
func TestStreamAffinityAndFailoverResume(t *testing.T) {
	addrA, srvA := realShard(t, "shard-a", 1)
	addrB, srvB := realShard(t, "shard-b", 2)
	p, err := cluster.NewProxy(cluster.ProxyConfig{
		Shards:         []string{addrA, addrB},
		HealthInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	pts := httptest.NewServer(p)
	defer pts.Close()
	frames := testFrames(64, 2, 77)

	// A shard is labelled with its id only once a health probe has read it;
	// wait for both labels before asserting on them.
	waitHealth(t, pts.URL, "both shards labelled", func(h chaosHealth) bool {
		return h.Shards[addrA].ShardID == "shard-a" && h.Shards[addrB].ShardID == "shard-b"
	})

	conn := dialProxyStream(t, pts, "?camera=affine1")
	hello := readStreamMsg(t, conn)
	if hello.Type != serve.MsgHello {
		t.Fatalf("first message type %q, want hello", hello.Type)
	}
	owner := hello.ShardID
	if owner != "shard-a" && owner != "shard-b" {
		t.Fatalf("hello shard_id %q, want a configured shard", owner)
	}

	// A second session for the same camera lands on the same shard.
	conn2 := dialProxyStream(t, pts, "?camera=affine1")
	if h2 := readStreamMsg(t, conn2); h2.ShardID != owner {
		t.Fatalf("same-camera session landed on %q, owner is %q — affinity broken", h2.ShardID, owner)
	}
	_ = conn2.WriteClose(1000, "done")
	for {
		if _, err := conn2.ReadMessage(); err != nil {
			break
		}
	}

	// Stream two frames: the shard's per-session tracker counts them.
	for i := 1; i <= 2; i++ {
		sendStreamFrame(t, conn, i, frames[(i-1)%len(frames)])
		msg := readStreamMsg(t, conn)
		if msg.Type != serve.MsgResult || msg.Seq != i || msg.Frame != i {
			t.Fatalf("frame %d: type %q seq %d tracker-frame %d (err %q)", i, msg.Type, msg.Seq, msg.Frame, msg.Error)
		}
	}

	// Drain the owner: its sessions get a bye "drain", which the relay must
	// intercept and turn into a failover, not a goodbye.
	ownerSrv, otherID := srvA, "shard-b"
	if owner == "shard-b" {
		ownerSrv, otherID = srvB, "shard-a"
	}
	ownerSrv.Close()

	resumed := readStreamMsg(t, conn)
	if resumed.Type != serve.MsgResumed || !resumed.Resumed {
		t.Fatalf("after owner drain: type %q resumed %v, want a resumed marker", resumed.Type, resumed.Resumed)
	}
	if resumed.ShardID != otherID {
		t.Fatalf("resumed on %q, want %q", resumed.ShardID, otherID)
	}

	// The replacement session is fresh: its tracker restarts at frame 1,
	// so track ids restart with it.
	sendStreamFrame(t, conn, 3, frames[0])
	msg := readStreamMsg(t, conn)
	if msg.Type != serve.MsgResult || msg.Seq != 3 {
		t.Fatalf("post-resume frame: type %q seq %d (err %q)", msg.Type, msg.Seq, msg.Error)
	}
	if msg.Frame != 1 {
		t.Fatalf("post-resume tracker frame %d, want 1 (fresh per-session tracker)", msg.Frame)
	}

	rep := p.FleetReport()
	if rep.ProxyStreamResumesTotal != 1 {
		t.Errorf("proxy_stream_resumes_total %d, want 1", rep.ProxyStreamResumesTotal)
	}
	if rep.ProxyStreamSessions != 1 {
		t.Errorf("proxy_stream_sessions %d, want 1", rep.ProxyStreamSessions)
	}
	// The fleet rollup carries the shards' session tier too: the relayed
	// session is open on the survivor and has streamed a frame there.
	if rep.SessionsOpen < 1 || rep.SessionsTotal < 1 || rep.StreamFramesTotal < 1 {
		t.Errorf("rollup sessions_open %d sessions_total %d stream_frames_total %d, want each >= 1 with a relayed session open",
			rep.SessionsOpen, rep.SessionsTotal, rep.StreamFramesTotal)
	}

	// Graceful client close propagates through relay and shard.
	_ = conn.WriteClose(1000, "done")
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := conn.ReadMessage(); err != nil {
			break
		}
	}
	for p.StreamSessions() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("proxy stream gauge %d, want 0", p.StreamSessions())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestProxyStreamLimitAndIdleByeRelay pins the proxy-side session bound
// (plain-HTTP 503 + Retry-After over the cap, slot reuse after close) and
// that a shard's deliberate idle eviction is relayed to the client as the
// bye it is — no failover for a session the fleet chose to end.
func TestProxyStreamLimitAndIdleByeRelay(t *testing.T) {
	addr, srv := realShard(t, "solo", 3)
	srv.ConfigureStreams(serve.StreamConfig{IdleTimeout: 200 * time.Millisecond, SweepInterval: 10 * time.Millisecond})
	p, err := cluster.NewProxy(cluster.ProxyConfig{
		Shards:            []string{addr},
		HealthInterval:    50 * time.Millisecond,
		MaxStreamSessions: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	pts := httptest.NewServer(p)
	defer pts.Close()
	frames := testFrames(64, 1, 77)

	conn := dialProxyStream(t, pts, "?camera=idlecam")
	if h := readStreamMsg(t, conn); h.Type != serve.MsgHello {
		t.Fatalf("first message type %q, want hello", h.Type)
	}
	sendStreamFrame(t, conn, 1, frames[0])
	if msg := readStreamMsg(t, conn); msg.Type != serve.MsgResult {
		t.Fatalf("frame answer type %q (err %q), want result", msg.Type, msg.Error)
	}

	// Over the proxy cap: refused with plain HTTP before any upgrade.
	_, err = ws.Dial(pts.Listener.Addr().String(), "/stream?camera=other", nil, 2*time.Second)
	var he *ws.HandshakeError
	if !errors.As(err, &he) || he.StatusCode != 503 {
		t.Fatalf("over-cap open: got %v, want a 503 handshake rejection", err)
	}
	if he.RetryAfter == "" {
		t.Error("proxy 503 is missing Retry-After")
	}

	// Idle out: the shard's bye "idle" must arrive at the client verbatim.
	msg := readStreamMsg(t, conn)
	if msg.Type != serve.MsgBye || msg.Reason != serve.ByeReasonIdle {
		t.Fatalf("got type %q reason %q, want bye/idle relayed", msg.Type, msg.Reason)
	}
	if _, err := conn.ReadMessage(); !errors.Is(err, ws.ErrPeerClosed) {
		t.Fatalf("after bye: err %v, want ErrPeerClosed", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.StreamSessions() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("proxy stream gauge %d, want 0", p.StreamSessions())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The slot is reusable now.
	conn3 := dialProxyStream(t, pts, "?camera=third")
	if h := readStreamMsg(t, conn3); h.Type != serve.MsgHello {
		t.Fatalf("reopened session: first message %q, want hello", h.Type)
	}
	if got := fmt.Sprint(p.StreamSessions()); got != "1" {
		t.Errorf("stream gauge %s, want 1", got)
	}
}
