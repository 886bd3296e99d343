package cluster

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/serve"
	"repro/internal/ws"
)

// streamDialTimeout bounds one shard WebSocket handshake from the proxy.
const streamDialTimeout = 5 * time.Second

// handleStream proxies one GET /stream WebSocket session to the camera's
// ring owner, pinning the session to that shard for its whole life. The
// shard side is dialed BEFORE the client upgrade, so every refusal — no
// live shard, the shard's session limit, proxy stream capacity — is still a
// plain HTTP status the client can read. After the upgrade the proxy is a
// dumb pipe with one smart edge: when the pinned shard dies mid-session
// (transport error) or drains for a restart (bye "drain"), the relay
// re-establishes the session on the next live ring shard and injects a
// {"type":"resumed","resumed":true} marker so the client knows track ids
// have restarted; deliberate session ends (bye "idle", client close) are
// relayed, not retried.
func (p *Proxy) handleStream(w http.ResponseWriter, r *http.Request) {
	p.streamsTotal.Add(1)
	if r.Method != http.MethodGet {
		serve.WriteError(w, http.StatusMethodNotAllowed, "GET (websocket upgrade) required")
		return
	}
	if !ws.IsUpgrade(r) {
		serve.WriteError(w, http.StatusUpgradeRequired, "/stream requires a websocket upgrade")
		return
	}
	if n := p.streamSessions.Add(1); n > int64(p.cfg.MaxStreamSessions) {
		p.streamSessions.Add(-1)
		w.Header().Set("Retry-After", retryAfterBackpressure)
		serve.WriteError(w, http.StatusServiceUnavailable, "proxy stream limit reached (%d open)", p.cfg.MaxStreamSessions)
		return
	}
	defer p.streamSessions.Add(-1)

	rl := &streamRelay{
		p:     p,
		key:   serve.CameraKey(r),
		pathq: r.URL.Path,
		hdr:   streamForwardHeader(r),
	}
	if r.URL.RawQuery != "" {
		rl.pathq += "?" + r.URL.RawQuery
	}

	// First connect, with the same budgeted ring walk the data plane uses.
	// An HTTP-level refusal from the owner (its session limit, shutdown) is
	// relayed verbatim: the shard is alive and answered for its key, so
	// spilling the camera elsewhere would break affinity for no reason.
	_, status, msg := p.walk(rl.key, "", time.Time{}, func(s *shardState, _ int) bool {
		conn, err := p.dialShardStream(s, rl.pathq, rl.hdr)
		var he *ws.HandshakeError
		if errors.As(err, &he) {
			s.br.RecordData(true) // the shard answered; it is not broken
			if he.RetryAfter != "" {
				w.Header().Set("Retry-After", he.RetryAfter)
			}
			w.Header().Set("X-Dronet-Shard", s.label())
			serve.WriteError(w, he.StatusCode, "shard %s refused the session: %s", s.label(), strings.TrimSpace(string(he.Body)))
			return true
		}
		if err != nil {
			s.errors.Add(1)
			s.br.RecordData(false)
			p.failovers.Add(1)
			return false
		}
		s.br.RecordData(true)
		rl.shard, rl.addr = conn, s.addr
		return true
	})
	if status != 0 {
		refuse(w, status, msg)
	}
	if rl.shard == nil {
		return // refused, by the walk or by the owner shard
	}
	client, err := ws.Accept(w, r)
	if err != nil {
		_ = rl.shard.WriteClose(1001, "client upgrade failed")
		_ = rl.shard.Close()
		serve.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rl.client = client
	p.registerRelay(rl)
	defer p.unregisterRelay(rl)
	p.relayWG.Add(1)
	go rl.uplink()
	rl.downlink()
}

// dialShardStream opens the shard side of a session, forwarding the
// client's path, query and identity headers. The cluster.forward fault site
// applies, so chaos tests can cut stream establishment like any forward.
func (p *Proxy) dialShardStream(s *shardState, pathq string, hdr http.Header) (*ws.Conn, error) {
	if err := faults.Fire("cluster.forward", s.addr); err != nil {
		return nil, err
	}
	return ws.Dial(s.addr, pathq, hdr, streamDialTimeout)
}

// streamForwardHeader copies the headers a shard should see, dropping the
// hop-by-hop upgrade fields (the proxy performs its own handshake).
func streamForwardHeader(r *http.Request) http.Header {
	h := make(http.Header)
	for k, vs := range r.Header {
		ck := http.CanonicalHeaderKey(k)
		if ck == "Connection" || ck == "Upgrade" || strings.HasPrefix(ck, "Sec-Websocket-") {
			continue
		}
		for _, v := range vs {
			h.Add(k, v)
		}
	}
	return h
}

// streamRelay is one pinned client↔shard session pipe: an uplink goroutine
// copying client frames to the current shard and a downlink loop (the
// handler goroutine) copying shard answers back, watching for the two
// failover triggers. The current shard connection is swapped under mu on
// failover; frames written during the swap window are lost by design — the
// new shard's tracker restarts anyway, and the resumed marker tells the
// client so.
type streamRelay struct {
	p     *Proxy
	key   string
	pathq string
	hdr   http.Header

	client *ws.Conn

	mu     sync.Mutex
	shard  *ws.Conn
	addr   string
	closed bool
}

// currentShard snapshots the active shard connection.
func (rl *streamRelay) currentShard() (*ws.Conn, string) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if rl.closed {
		return nil, ""
	}
	return rl.shard, rl.addr
}

// swap installs a freshly dialed shard connection, closing the dead one.
// Returns false when the relay shut down while the failover dial ran.
func (rl *streamRelay) swap(conn *ws.Conn, addr string) bool {
	rl.mu.Lock()
	old := rl.shard
	if rl.closed {
		rl.mu.Unlock()
		return false
	}
	rl.shard, rl.addr = conn, addr
	rl.mu.Unlock()
	if old != nil {
		_ = old.Close()
	}
	return true
}

// shutdown tears the relay down from either side, idempotently.
func (rl *streamRelay) shutdown() {
	rl.mu.Lock()
	if rl.closed {
		rl.mu.Unlock()
		return
	}
	rl.closed = true
	shard := rl.shard
	rl.mu.Unlock()
	if shard != nil {
		_ = shard.Close()
	}
	_ = rl.client.Close()
}

// uplink copies client frames to the pinned shard. A client close forwards
// the goodbye so the shard drains the session gracefully; a shard write
// failure just drops the frame — the downlink owns failover, and the next
// frames will land on the replacement connection.
func (rl *streamRelay) uplink() {
	defer rl.p.relayWG.Done()
	for {
		msg, err := rl.client.ReadMessage()
		if err != nil {
			if sc, _ := rl.currentShard(); sc != nil && errors.Is(err, ws.ErrPeerClosed) {
				_ = sc.WriteClose(1000, "client closed")
			}
			rl.shutdown()
			return
		}
		if sc, _ := rl.currentShard(); sc != nil {
			_ = sc.WriteMessage(msg)
		} else {
			return
		}
	}
}

// downlink copies shard answers to the client and reacts to the session
// ending: a deliberate bye ("idle", "closed") is relayed and the pipe
// closes; a drain bye or a raw transport error triggers failover.
func (rl *streamRelay) downlink() {
	for {
		sc, addr := rl.currentShard()
		if sc == nil {
			return
		}
		msg, err := sc.ReadMessage()
		if err != nil {
			if rl.relayClosed() {
				return
			}
			if !rl.failover(addr, true) {
				rl.sayGoodbye("failover exhausted: no live shard to resume on")
				return
			}
			continue
		}
		var parsed serve.StreamMessage
		if json.Unmarshal(msg, &parsed) == nil && parsed.Type == serve.MsgBye {
			if parsed.Reason == serve.ByeReasonDrain {
				// The shard is restarting, not the session ending: re-home
				// the camera instead of relaying the goodbye. No breaker
				// penalty — the shard told us politely.
				if !rl.failover(addr, false) {
					rl.sayGoodbye("shard drained and no live shard to resume on")
					return
				}
				continue
			}
			// Deliberate end (idle eviction, client-initiated): relay the
			// bye and the close handshake behind it, then shut down.
			_ = rl.client.WriteMessage(msg)
			_ = rl.client.WriteClose(1000, parsed.Reason)
			rl.shutdown()
			return
		}
		if rl.client.WriteMessage(msg) != nil {
			rl.shutdown()
			return
		}
	}
}

func (rl *streamRelay) relayClosed() bool {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return rl.closed
}

// sayGoodbye ends the client side with an in-band bye when resumption ran
// out of shards.
func (rl *streamRelay) sayGoodbye(reason string) {
	msg, _ := json.Marshal(serve.StreamMessage{Type: serve.MsgBye, Reason: "failover", Error: reason})
	_ = rl.client.WriteMessage(msg)
	_ = rl.client.WriteClose(1012, "service restart")
	rl.shutdown()
}

// failover re-establishes the session on the next live ring shard for the
// relay's camera key and injects the resumed marker. penalize feeds the
// dead shard's breaker (transport death) or not (polite drain).
func (rl *streamRelay) failover(failedAddr string, penalize bool) bool {
	p := rl.p
	if s := p.shards[failedAddr]; s != nil && penalize {
		s.errors.Add(1)
		s.br.RecordData(false)
	}
	p.failovers.Add(1)
	ok := false
	p.walk(rl.key, failedAddr, time.Time{}, func(s *shardState, _ int) bool {
		conn, err := p.dialShardStream(s, rl.pathq, rl.hdr)
		if err != nil {
			// Both a refusal and a transport error just move the walk on;
			// only the latter is breaker evidence.
			var he *ws.HandshakeError
			if !errors.As(err, &he) {
				s.errors.Add(1)
				s.br.RecordData(false)
			}
			return false
		}
		s.br.RecordData(true)
		// The replacement session's hello becomes the resumed marker: same
		// camera, new shard, fresh tracker (the client must expect track
		// ids to restart).
		raw, err := conn.ReadMessage()
		var hello serve.StreamMessage
		if err != nil || json.Unmarshal(raw, &hello) != nil || hello.Type != serve.MsgHello {
			_ = conn.Close()
			s.errors.Add(1)
			s.br.RecordData(false)
			return false
		}
		if !rl.swap(conn, s.addr) {
			_ = conn.Close()
			return true
		}
		p.retry.Success()
		p.streamResumes.Add(1)
		resumed, _ := json.Marshal(serve.StreamMessage{
			Type:    serve.MsgResumed,
			Resumed: true,
			Session: hello.Session,
			Camera:  hello.Camera,
			ShardID: hello.ShardID,
			Model:   hello.Model,
		})
		if rl.client.WriteMessage(resumed) != nil {
			rl.shutdown()
			return true
		}
		ok = true
		return true
	})
	return ok
}

// registerRelay/unregisterRelay keep the live-relay set Close tears down.
func (p *Proxy) registerRelay(rl *streamRelay) {
	p.relayMu.Lock()
	p.relays[rl] = struct{}{}
	p.relayMu.Unlock()
}

func (p *Proxy) unregisterRelay(rl *streamRelay) {
	p.relayMu.Lock()
	delete(p.relays, rl)
	p.relayMu.Unlock()
}

// closeRelays shuts every live relay down and joins their uplinks —
// Proxy.Close calls it so no relay goroutine outlives the proxy.
func (p *Proxy) closeRelays() {
	p.relayMu.Lock()
	relays := make([]*streamRelay, 0, len(p.relays))
	for rl := range p.relays {
		relays = append(relays, rl)
	}
	p.relayMu.Unlock()
	for _, rl := range relays {
		rl.shutdown()
	}
	p.relayWG.Wait()
}

// StreamSessions returns the live relayed-session gauge.
func (p *Proxy) StreamSessions() int { return int(p.streamSessions.Load()) }
