// Command streamclient is the walkthrough client for the streaming-session
// tier (internal/serve /stream, internal/ws) and the driver behind `make
// stream-smoke`: it boots a dronet-serve binary on a random loopback port
// with a deliberately small session budget, opens WebSocket sessions and
// walks the whole lifecycle — hello, per-frame results with stable track
// state, the max-sessions 503 with Retry-After, in-band errors for bad
// frames, idle eviction (bye "idle"), and the SIGTERM drain (bye "drain"
// followed by a clean server exit).
//
// With -sharded (and -proxy) it walks the relayed tier instead: two shard
// servers behind a dronet-proxy, asserting camera-affine session placement,
// then SIGTERM-draining the owner shard mid-session — the proxy must
// re-home the session to the survivor and inject the resumed:true marker,
// after which the replacement session's tracker starts fresh at frame 1.
// A short -spawn leg also boots the proxy in self-spawning mode to prove
// the shard flags it forwards by name (here -max-batch) reach the child
// servers.
//
// Usage:
//
//	go run ./examples/streamclient -server bin/dronet-serve
//	go run ./examples/streamclient -sharded -server bin/dronet-serve -proxy bin/dronet-proxy
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/imgproc"
	"repro/internal/pipeline"
	"repro/internal/serve"
	"repro/internal/ws"
)

// drainTimeout bounds how long a SIGTERMed process may take to exit.
const drainTimeout = 30 * time.Second

func main() {
	log.SetFlags(0)
	log.SetPrefix("streamclient: ")
	server := flag.String("server", "", "path to a dronet-serve binary to spawn on a random port")
	proxyBin := flag.String("proxy", "", "path to a dronet-proxy binary (required with -sharded)")
	size := flag.Int("size", 96, "frame size to send (and model input when spawning)")
	frames := flag.Int("frames", 6, "frames to stream per session")
	sharded := flag.Bool("sharded", false, "walk the relayed tier: two shards behind a proxy, affinity + failover resume")
	flag.Parse()

	if *server == "" {
		log.Fatal("-server is required (build it with: go build -o bin/dronet-serve ./cmd/dronet-serve)")
	}
	if *sharded {
		if *proxyBin == "" {
			log.Fatal("-sharded needs -proxy (build it with: go build -o bin/dronet-proxy ./cmd/dronet-proxy)")
		}
		shardedWalk(*server, *proxyBin, *size, *frames)
		return
	}
	directWalk(*server, *size, *frames)
}

// directWalk exercises one server's whole session lifecycle: stream,
// session cap, bad-frame in-band error, idle eviction, SIGTERM drain.
func directWalk(serverBin string, size, frames int) {
	server, err := cluster.Spawn(serverBin, []string{
		"-addr", "127.0.0.1:0", "-size", fmt.Sprint(size), "-scale", "0.25", "-workers", "2",
		"-max-sessions", "2", "-session-idle", "700ms", "-session-inflight", "4",
	}, false)
	if err != nil {
		log.Fatal(err)
	}
	addr := server.Addr
	fmt.Printf("server up on %s (max-sessions 2, session-idle 700ms)\n", addr)

	imgs := renderFrames(size, frames, 42)

	// Session A: the happy path. Hello first, then one result per frame
	// with the seq echoed and the per-session tracker frame counting up.
	connA := dialStream(addr, "?camera=walk-a")
	hello := readMsg(connA)
	if hello.Type != serve.MsgHello || hello.Session == "" {
		log.Fatalf("first message %+v, want a hello with a session id", hello)
	}
	fmt.Printf("session %s open for camera %q (inflight %d, policy %s)\n",
		hello.Session, hello.Camera, hello.MaxInflight, hello.Policy)
	for i, img := range imgs {
		sendFrame(connA, i+1, img)
		msg := readMsg(connA)
		if msg.Type != serve.MsgResult || msg.Seq != i+1 {
			log.Fatalf("frame %d: got type %q seq %d (err %q), want an in-order result", i+1, msg.Type, msg.Seq, msg.Error)
		}
		if msg.Frame != i+1 {
			log.Fatalf("frame %d: tracker frame %d — per-session tracker state is off", i+1, msg.Frame)
		}
		fmt.Printf("frame %d: %d detections, %d tracks, batch %d, %.1f ms\n",
			msg.Seq, len(msg.Detections), len(msg.Tracks), msg.BatchSize, msg.LatencyMs)
	}

	// A malformed frame is an in-band error, not a dead session.
	if err := connA.WriteMessage([]byte(`{"width":0,"height":0}`)); err != nil {
		log.Fatal(err)
	}
	if msg := readMsg(connA); msg.Type != serve.MsgError || msg.Code != 400 {
		log.Fatalf("bad frame answered %+v, want an in-band 400", msg)
	}
	fmt.Println("malformed frame rejected in-band with code 400; session still live")

	// Fill the session budget: B fits, C is refused with plain HTTP.
	connB := dialStream(addr, "?camera=walk-b")
	if h := readMsg(connB); h.Type != serve.MsgHello {
		log.Fatalf("session b: first message %+v, want hello", h)
	}
	_, err = ws.Dial(addr, "/stream?camera=walk-c", nil, 5*time.Second)
	var he *ws.HandshakeError
	if !errors.As(err, &he) || he.StatusCode != 503 {
		log.Fatalf("third session: got %v, want a 503 handshake refusal", err)
	}
	if he.RetryAfter == "" {
		log.Fatal("session-cap 503 is missing Retry-After")
	}
	fmt.Printf("third session refused: 503 with Retry-After %ss\n", he.RetryAfter)
	closeSession(connB)
	fmt.Println("session b closed gracefully; slot freed")

	// Session A goes quiet: the sweeper must evict it with a bye "idle".
	msg := readMsg(connA)
	if msg.Type != serve.MsgBye || msg.Reason != serve.ByeReasonIdle {
		log.Fatalf("idle session got %+v, want bye/idle", msg)
	}
	if _, err := connA.ReadMessage(); !errors.Is(err, ws.ErrPeerClosed) {
		log.Fatalf("after bye: %v, want the server's close frame", err)
	}
	fmt.Println("idle session evicted: bye \"idle\" then a clean close")

	// Drain: a live session must get bye "drain" and the process must exit.
	connD := dialStream(addr, "?camera=walk-d")
	if h := readMsg(connD); h.Type != serve.MsgHello {
		log.Fatalf("drain session: first message %+v, want hello", h)
	}
	sendFrame(connD, 1, imgs[0])
	if msg := readMsg(connD); msg.Type != serve.MsgResult {
		log.Fatalf("drain session frame: %+v, want a result", msg)
	}
	if err := server.Cmd.Process.Signal(syscall.SIGTERM); err != nil {
		log.Fatal(err)
	}
	if msg := readMsg(connD); msg.Type != serve.MsgBye || msg.Reason != serve.ByeReasonDrain {
		log.Fatalf("on SIGTERM got %+v, want bye/drain", msg)
	}
	if _, err := connD.ReadMessage(); !errors.Is(err, ws.ErrPeerClosed) {
		log.Fatalf("after drain bye: %v, want the server's close frame", err)
	}
	if err := server.Cmd.Wait(); err != nil {
		log.Fatalf("server exit: %v", err)
	}
	fmt.Println("SIGTERM drain: bye \"drain\" to the live session, server exited cleanly")
	fmt.Println("stream smoke (direct) passed")
}

// shardedWalk exercises the relayed tier: session affinity on the camera
// ring, transparent failover with the resumed marker when the owner shard
// drains, and the shard flags -spawn forwards.
func shardedWalk(serverBin, proxyBin string, size, frames int) {
	type shard struct {
		id string
		*cluster.Process
	}
	shards := []shard{{id: "shard-a"}, {id: "shard-b"}}
	for i := range shards {
		p, err := cluster.Spawn(serverBin, []string{
			"-addr", "127.0.0.1:0", "-size", fmt.Sprint(size), "-scale", "0.25", "-workers", "2",
			"-shard-id", shards[i].id, "-max-sessions", "8", "-session-inflight", "4",
		}, false)
		if err != nil {
			log.Fatal(err)
		}
		shards[i].Process = p
		fmt.Printf("%s up on %s\n", shards[i].id, p.Addr)
	}
	proxy, err := cluster.Spawn(proxyBin, []string{
		"-addr", "127.0.0.1:0", "-shards", shards[0].Addr + "," + shards[1].Addr,
		"-health-interval", "100ms", "-max-streams", "8",
	}, false)
	if err != nil {
		log.Fatal(err)
	}
	proxyAddr := proxy.Addr
	fmt.Printf("proxy up on %s fronting both shards\n", proxyAddr)
	// Give the health loop a beat to learn the shards' identity labels.
	time.Sleep(400 * time.Millisecond)

	imgs := renderFrames(size, frames, 43)

	conn := dialStream(proxyAddr, "?camera=affine-cam")
	hello := readMsg(conn)
	if hello.Type != serve.MsgHello {
		log.Fatalf("first message %+v, want hello", hello)
	}
	owner := hello.ShardID
	if owner != "shard-a" && owner != "shard-b" {
		log.Fatalf("hello shard_id %q, want one of the configured shards", owner)
	}
	fmt.Printf("session pinned to ring owner %s\n", owner)

	// Same camera, second session: must land on the same shard.
	conn2 := dialStream(proxyAddr, "?camera=affine-cam")
	if h := readMsg(conn2); h.ShardID != owner {
		log.Fatalf("same-camera session landed on %q, owner is %q — affinity broken", h.ShardID, owner)
	}
	closeSession(conn2)
	fmt.Println("same-camera session landed on the same shard; affinity holds")

	for i := 0; i < 2; i++ {
		sendFrame(conn, i+1, imgs[i%len(imgs)])
		msg := readMsg(conn)
		if msg.Type != serve.MsgResult || msg.Frame != i+1 {
			log.Fatalf("frame %d: %+v, want result with tracker frame %d", i+1, msg, i+1)
		}
	}

	// Drain the owner mid-session: the relay must intercept the shard's
	// bye "drain", re-home the session and inject the resumed marker.
	var ownerProc, survivor *shard
	for i := range shards {
		if shards[i].id == owner {
			ownerProc = &shards[i]
		} else {
			survivor = &shards[i]
		}
	}
	if err := ownerProc.Cmd.Process.Signal(syscall.SIGTERM); err != nil {
		log.Fatal(err)
	}
	resumed := readMsg(conn)
	if resumed.Type != serve.MsgResumed || !resumed.Resumed {
		log.Fatalf("after owner drain got %+v, want a resumed marker", resumed)
	}
	if resumed.ShardID != survivor.id {
		log.Fatalf("resumed on %q, want the survivor %q", resumed.ShardID, survivor.id)
	}
	fmt.Printf("owner drained; session resumed on %s with resumed:true\n", resumed.ShardID)

	// The replacement session is fresh: its tracker restarts at frame 1.
	sendFrame(conn, 3, imgs[0])
	msg := readMsg(conn)
	if msg.Type != serve.MsgResult || msg.Frame != 1 {
		log.Fatalf("post-resume frame: %+v, want a result from a fresh tracker (frame 1)", msg)
	}
	fmt.Println("post-resume result came from a fresh per-session tracker (frame 1, track ids restart)")
	closeSession(conn)
	if err := ownerProc.Cmd.Wait(); err != nil {
		log.Fatalf("%s exit: %v", ownerProc.id, err)
	}

	if err := proxy.Drain(drainTimeout); err != nil {
		log.Fatalf("proxy exit: %v", err)
	}
	if err := survivor.Drain(drainTimeout); err != nil {
		log.Fatalf("%s exit: %v", survivor.id, err)
	}
	fmt.Printf("proxy and %s drained and exited cleanly\n", survivor.id)

	// Spawn-mode sanity: the proxy boots its own shard children, which must
	// get the -max-batch it was given (a session opens and answers, and
	// every shard's metrics report the batch bound).
	spawned, err := cluster.Spawn(proxyBin, []string{
		"-addr", "127.0.0.1:0", "-spawn", "2", "-serve-bin", serverBin,
		"-size", fmt.Sprint(size), "-scale", "0.25", "-workers", "2", "-max-batch", "2",
	}, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spawn-mode proxy up on %s\n", spawned.Addr)
	sconn := dialStream(spawned.Addr, "?camera=spawn-cam")
	if sh := readMsg(sconn); sh.Type != serve.MsgHello {
		log.Fatalf("spawn-mode first message %+v, want hello", sh)
	}
	sendFrame(sconn, 1, imgs[0])
	if msg := readMsg(sconn); msg.Type != serve.MsgResult {
		log.Fatalf("spawn-mode frame: %+v, want a result", msg)
	}
	closeSession(sconn)
	fleet := fleetMetrics(spawned.Addr)
	if len(fleet.Shards) != 2 {
		log.Fatalf("spawn-mode fleet metrics list %d shards, want 2", len(fleet.Shards))
	}
	for addr, sm := range fleet.Shards {
		if sm.Metrics == nil {
			log.Fatalf("spawn-mode shard %s: no metrics block", addr)
		}
		if sm.Metrics.MaxBatch != 2 {
			log.Fatalf("spawn-mode shard %s: max_batch %d, want the 2 the proxy was given", addr, sm.Metrics.MaxBatch)
		}
	}
	fmt.Println("spawn-mode shards got the forwarded -max-batch (max_batch 2 on every shard's metrics)")
	if err := spawned.Drain(drainTimeout); err != nil {
		log.Fatalf("spawn-mode proxy exit: %v", err)
	}
	fmt.Println("spawn-mode proxy drained and exited cleanly")
	fmt.Println("stream smoke (sharded) passed")
}

// renderFrames pre-renders one camera's synthetic frames.
func renderFrames(size, n int, seed uint64) []*imgproc.Image {
	cam := pipeline.NewSimCamera(dataset.DefaultConfig(size), n, seed)
	var imgs []*imgproc.Image
	for {
		f, ok := cam.Next()
		if !ok {
			break
		}
		imgs = append(imgs, f.Image)
	}
	return imgs
}

func dialStream(addr, query string) *ws.Conn {
	conn, err := ws.Dial(addr, "/stream"+query, nil, 10*time.Second)
	if err != nil {
		log.Fatalf("dial /stream%s: %v", query, err)
	}
	// A wedged walk should fail loudly, not hang the smoke target.
	_ = conn.SetReadDeadline(time.Now().Add(60 * time.Second))
	return conn
}

func readMsg(conn *ws.Conn) serve.StreamMessage {
	raw, err := conn.ReadMessage()
	if err != nil {
		log.Fatalf("read stream message: %v", err)
	}
	var msg serve.StreamMessage
	if err := json.Unmarshal(raw, &msg); err != nil {
		log.Fatalf("decode %q: %v", raw, err)
	}
	return msg
}

func sendFrame(conn *ws.Conn, seq int, img *imgproc.Image) {
	body, err := json.Marshal(serve.StreamFrame{Seq: seq, Width: img.W, Height: img.H, Pixels: img.Pix})
	if err != nil {
		log.Fatal(err)
	}
	if err := conn.WriteMessage(body); err != nil {
		log.Fatalf("send frame %d: %v", seq, err)
	}
}

// closeSession performs the graceful goodbye: close frame out, drain until
// the peer's close comes back.
func closeSession(conn *ws.Conn) {
	if err := conn.WriteClose(1000, "done"); err != nil {
		log.Fatalf("write close: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	_ = conn.SetReadDeadline(deadline)
	for {
		if _, err := conn.ReadMessage(); err != nil {
			return
		}
		if time.Now().After(deadline) {
			log.Fatal("peer never answered the close frame")
		}
	}
}

// fleetMetrics fetches a proxy's fleet /metrics document.
func fleetMetrics(addr string) cluster.FleetReport {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var rep cluster.FleetReport
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("GET %s/metrics: %s", addr, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		log.Fatalf("GET %s/metrics: bad JSON: %v", addr, err)
	}
	return rep
}
