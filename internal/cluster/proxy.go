package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/serve"
)

// maxForwardBytes bounds a forwarded request body, mirroring the shard's
// own 64MB admission bound so the proxy cannot be made to buffer more than
// a shard would accept anyway.
const maxForwardBytes = 64 << 20

// ProxyConfig configures a Proxy. Zero values take the stated defaults.
type ProxyConfig struct {
	// Shards is the fleet: one host:port per dronet-serve process.
	Shards []string
	// MaxInflight bounds concurrently-forwarded requests per shard
	// (default 32): the proxy-side backpressure layer composing with each
	// shard's own admission queue.
	MaxInflight int
	// HealthInterval is the active /healthz probe period (default 500ms).
	HealthInterval time.Duration
	// FailThreshold is the consecutive probe-failure streak that opens a
	// shard's circuit breaker (default 3). The half-open probe after
	// BreakerCooldown is the only re-admission path.
	FailThreshold int
	// BreakerWindow is the per-shard ring of data-plane forward outcomes
	// the breaker's error rate is computed over (default 20).
	BreakerWindow int
	// BreakerMinSamples is the minimum number of windowed outcomes before
	// the error rate can open the breaker (default 5) — one early hiccup
	// must not eject a shard.
	BreakerMinSamples int
	// BreakerErrorRate is the windowed data error rate at or above which
	// the breaker opens (default 0.5).
	BreakerErrorRate float64
	// BreakerCooldown is how long an open breaker suppresses probes before
	// the half-open recovery trial (default 2×HealthInterval — 1s at the
	// default probe cadence). Scaling the default with the probe period
	// keeps a fast-probing fleet's recovery fast: a shard ejected by a
	// transient stall is re-trialed within two probe ticks, not parked for
	// a fixed wall-clock second.
	BreakerCooldown time.Duration
	// RetryBudget caps the proxy's failover retries: each failover past a
	// request's first attempt draws one token from a shared bucket of this
	// size (default 10). An empty bucket turns further failovers into 503s
	// with Retry-After — the anti-retry-storm valve.
	RetryBudget float64
	// RetryRefill is the fraction of a token returned to the bucket per
	// successfully relayed response (default 0.1: one free retry per ten
	// successes). A negative value refills nothing, so the budget is spent
	// for good.
	RetryRefill float64
	// MaxStreamSessions bounds concurrently relayed /stream sessions
	// across the whole proxy (default 256). An open over the bound is a
	// plain-HTTP 503 + Retry-After before any upgrade.
	MaxStreamSessions int
	// Client overrides the forwarding/probing HTTP client (tests). The
	// default keeps connections alive with per-shard idle pools sized to
	// MaxInflight.
	Client *http.Client
}

func (c *ProxyConfig) withDefaults() {
	if c.MaxInflight < 1 {
		c.MaxInflight = 32
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 500 * time.Millisecond
	}
	if c.FailThreshold < 1 {
		c.FailThreshold = 3
	}
	if c.BreakerWindow < 1 {
		c.BreakerWindow = 20
	}
	if c.BreakerMinSamples < 1 {
		c.BreakerMinSamples = 5
	}
	if c.BreakerErrorRate <= 0 || c.BreakerErrorRate > 1 {
		c.BreakerErrorRate = 0.5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * c.HealthInterval
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 10
	}
	if c.RetryRefill == 0 {
		c.RetryRefill = 0.1
	}
	if c.MaxStreamSessions < 1 {
		c.MaxStreamSessions = 256
	}
}

func (c *ProxyConfig) breakerConfig() breakerConfig {
	return breakerConfig{
		window:        c.BreakerWindow,
		minSamples:    c.BreakerMinSamples,
		errorRate:     c.BreakerErrorRate,
		cooldown:      c.BreakerCooldown,
		failThreshold: c.FailThreshold,
	}
}

// Proxy fronts a fleet of dronet-serve shards behind the single-process
// /detect API: consistent-hash routing on the camera id, per-shard bounded
// forwarding, active health checking and fleet-wide metrics aggregation.
// Create with NewProxy, serve it like any http.Handler, Close when done.
type Proxy struct {
	cfg    ProxyConfig
	ring   *Ring
	shards map[string]*shardState
	client *http.Client
	mux    *http.ServeMux

	rr    atomic.Uint64 // round-robin cursor for keyless requests
	retry *serve.RetryBudget

	received         atomic.Uint64 // data-plane requests seen
	noShard          atomic.Uint64 // 503s: no live shard to try
	failovers        atomic.Uint64 // forwards retried on another shard after a transport error
	deadlineExceeded atomic.Uint64 // 504s: request deadline expired at or in the proxy
	retryExhausted   atomic.Uint64 // 503s: failover wanted but the retry budget was empty

	// Streaming-relay state: the live-session gauge and counters, and the
	// registry Close tears down (a relay outliving the proxy would hold
	// both sockets forever).
	streamSessions atomic.Int64
	streamsTotal   atomic.Uint64 // /stream opens seen (including refusals)
	streamResumes  atomic.Uint64 // sessions re-homed by failover
	relayMu        sync.Mutex
	relays         map[*streamRelay]struct{}
	relayWG        sync.WaitGroup

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewProxy builds the proxy and starts its health-check loop.
func NewProxy(cfg ProxyConfig) (*Proxy, error) {
	cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards configured")
	}
	p := &Proxy{
		cfg:    cfg,
		ring:   NewRing(DefaultVNodes),
		shards: make(map[string]*shardState, len(cfg.Shards)),
		client: cfg.Client,
		retry:  serve.NewRetryBudget(cfg.RetryBudget, cfg.RetryRefill),
		relays: make(map[*streamRelay]struct{}),
		stop:   make(chan struct{}),
	}
	if p.client == nil {
		var dialer net.Dialer
		p.client = &http.Client{Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				c, err := dialer.DialContext(ctx, network, addr)
				if err != nil {
					return nil, err
				}
				return shardConn{c}, nil
			},
			MaxIdleConns:        cfg.MaxInflight * len(cfg.Shards),
			MaxIdleConnsPerHost: cfg.MaxInflight,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	for _, addr := range cfg.Shards {
		if addr == "" {
			return nil, fmt.Errorf("cluster: empty shard address")
		}
		if _, dup := p.shards[addr]; dup {
			return nil, fmt.Errorf("cluster: duplicate shard address %q", addr)
		}
		p.shards[addr] = newShardState(addr, cfg.MaxInflight, cfg.breakerConfig())
		p.ring.Add(addr)
	}
	p.mux = http.NewServeMux()
	p.mux.HandleFunc("/detect", p.handleForward)
	p.mux.HandleFunc("/detect/raw", p.handleForward)
	p.mux.HandleFunc("/stream", p.handleStream)
	p.mux.HandleFunc("/healthz", p.handleHealthz)
	p.mux.HandleFunc("/metrics", p.handleMetrics)
	p.wg.Add(1)
	go p.healthLoop()
	return p, nil
}

// Close stops the health loop, tears down every live stream relay and
// drops idle connections. In-flight forwards finish on their own requests'
// lifetimes.
func (p *Proxy) Close() {
	close(p.stop)
	p.wg.Wait()
	p.closeRelays()
	if t, ok := p.client.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// ServeHTTP implements http.Handler.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) { p.mux.ServeHTTP(w, r) }

// cameraKey extracts the routing key: the ?camera= query parameter, then
// the X-Camera-ID header. Empty means the request has no stream identity
// and is balanced round-robin instead of hashed.
func cameraKey(r *http.Request) string {
	if k := r.URL.Query().Get("camera"); k != "" {
		return k
	}
	return r.Header.Get("X-Camera-ID")
}

// pick selects the shard for a key, excluding already-tried shards. Keyed
// requests walk the ring from the key's owner (fail-open); keyless
// requests round-robin across live candidates.
func (p *Proxy) pick(key string, tried map[string]bool) *shardState {
	usable := func(addr string) bool {
		s := p.shards[addr]
		return s != nil && s.br.Allow() && !tried[addr]
	}
	if key != "" {
		if addr, ok := p.ring.OwnerLive(key, usable); ok {
			return p.shards[addr]
		}
		return nil
	}
	members := p.ring.Members()
	if len(members) == 0 {
		return nil
	}
	start := int(p.rr.Add(1)-1) % len(members)
	for i := 0; i < len(members); i++ {
		if addr := members[(start+i)%len(members)]; usable(addr) {
			return p.shards[addr]
		}
	}
	return nil
}

// AttemptsHeader reports, on every proxy data-plane response, how many
// forward attempts the request consumed — 1 for the common case, more when
// failover retried it, 0 when it never reached a shard.
const AttemptsHeader = "X-Dronet-Attempts"

// retryAfterBackpressure is the Retry-After hint stamped on proxy-side
// 429/503 responses.
const retryAfterBackpressure = "1"

// Proxy-side failover backoff window: full jitter over [0, 2ms<<n] capped
// at 50ms. Shard failover is intra-datacenter, so the base is small; the
// cap keeps a deep walk of a mostly-dead ring under the typical client
// deadline.
const (
	failoverBackoffBase = 2 * time.Millisecond
	failoverBackoffMax  = 50 * time.Millisecond
)

// walk is the one budgeted ring walk behind every shard hop — a /detect
// forward, a /stream open and a relayed session's failover: hand try the
// next untried breaker-closed shard for key until it reports the request
// finished or the candidates run out. Every attempt past a request's first
// draws a token from the shared retry budget and waits a full-jitter
// backoff; the first is free — the budget governs retry amplification, not
// admission. failed names the shard that has just failed this request (""
// on a first connect): it is excluded and counts as the attempt already
// spent, so a failover pays for every hop. A non-zero deadline is checked
// before each attempt. A walk that dead-ends counts why (no shard, budget
// empty, deadline passed) and returns the status and message to refuse the
// request with; status is 0 when try finished it.
func (p *Proxy) walk(key, failed string, deadline time.Time, try func(s *shardState, attempt int) (done bool)) (attempts, status int, msg string) {
	tried := make(map[string]bool, 2)
	if failed != "" {
		tried[failed] = true
		attempts = 1
	}
	for len(tried) < len(p.shards) {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			p.deadlineExceeded.Add(1)
			return attempts, http.StatusGatewayTimeout, fmt.Sprintf("deadline exceeded at proxy after %d attempts", attempts)
		}
		s := p.pick(key, tried)
		if s == nil {
			break
		}
		if attempts > 0 {
			if !p.retry.Take() {
				p.retryExhausted.Add(1)
				return attempts, http.StatusServiceUnavailable, fmt.Sprintf("retry budget exhausted after %d attempts", attempts)
			}
			time.Sleep(serve.Backoff(attempts-1, failoverBackoffBase, failoverBackoffMax))
		}
		tried[s.addr] = true
		attempts++
		if try(s, attempts) {
			return attempts, 0, ""
		}
	}
	p.noShard.Add(1)
	return attempts, http.StatusServiceUnavailable, fmt.Sprintf("no live shard (fleet %d, live %d)", len(p.shards), p.liveCount())
}

// refuse answers a request whose walk dead-ended: the 503s are transient
// backpressure and carry Retry-After, the deadline 504 does not.
func refuse(w http.ResponseWriter, status int, msg string) {
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterBackpressure)
	}
	serve.WriteError(w, status, "%s", msg)
}

// maxPooledForward caps the body buffers forwardPool keeps, as serve's
// bodyPool is capped: a 96x96 frame is 300kB of JSON, while a buffer grown
// for a rare 64MB upload would sit in the pool as resident memory.
const maxPooledForward = 4 << 20

// forwardPool recycles the buffers forwarded bodies are read into.
var forwardPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// forwardBody is a request body read once into a pooled buffer, for the
// forward and its failover replays. The buffer is reference counted: the
// handler holds one reference, and every attempt's reader holds another
// from its creation until the transport closes it. The transport only
// promises to Close a request body, possibly after Do has returned — a shard
// that answers 429 before reading the body leaves the write still running
// — so the buffer goes back to the pool only when the last reference is
// released: after the handler and every attempt are done with it.
type forwardBody struct {
	buf  *bytes.Buffer
	refs atomic.Int32
}

// readForwardBody reads a request body, bounded by maxForwardBytes, into a
// pooled buffer sized once from Content-Length. The caller holds the one
// reference it returns with and must release it.
func readForwardBody(w http.ResponseWriter, r *http.Request) (*forwardBody, error) {
	b := &forwardBody{buf: forwardPool.Get().(*bytes.Buffer)}
	b.buf.Reset()
	b.refs.Store(1)
	if n := r.ContentLength; n > 0 && n <= maxForwardBytes {
		// ReadFrom wants MinRead bytes free for the read that finds EOF.
		b.buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := b.buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxForwardBytes)); err != nil {
		b.release()
		return nil, err
	}
	return b, nil
}

// release drops one reference; the last one returns the buffer to the pool.
func (b *forwardBody) release() {
	if b.refs.Add(-1) == 0 && b.buf.Cap() <= maxPooledForward {
		forwardPool.Put(b.buf)
	}
}

// attach makes the body req's: a reader over the bytes holding its own
// reference, the exact Content-Length, and a GetBody for the transport's
// own replays, whose readers hold references too. An empty body is
// http.NoBody, as http.NewRequest makes it.
func (b *forwardBody) attach(req *http.Request) {
	if b.buf.Len() == 0 {
		req.Body, req.ContentLength = http.NoBody, 0
		req.GetBody = func() (io.ReadCloser, error) { return http.NoBody, nil }
		return
	}
	req.GetBody = func() (io.ReadCloser, error) {
		b.refs.Add(1)
		return &attemptBody{body: b}, nil
	}
	req.Body, _ = req.GetBody()
	req.ContentLength = int64(b.buf.Len())
}

// attemptBody is one attempt's reader over a forwardBody. Close releases
// its reference under the mutex Read holds while copying, so once Close
// has returned no Read of this reader is touching the buffer, and none
// will: a Read after Close fails.
type attemptBody struct {
	mu   sync.Mutex
	body *forwardBody // nil once closed
	off  int
}

func (a *attemptBody) Read(p []byte) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.body == nil {
		return 0, http.ErrBodyReadAfterClose
	}
	data := a.body.buf.Bytes()
	if a.off >= len(data) {
		return 0, io.EOF
	}
	n := copy(p, data[a.off:])
	a.off += n
	return n, nil
}

func (a *attemptBody) Close() error {
	a.mu.Lock()
	b := a.body
	a.body = nil
	a.mu.Unlock()
	if b != nil {
		b.release()
	}
	return nil
}

// handleForward proxies one /detect or /detect/raw request to its owning
// shard. The body is read once into a pooled forwardBody so a transport
// failure can fail over to the next breaker-closed shard on the ring with
// the identical payload; the handler's reference is released when it
// returns, each attempt's when the transport closes its reader;
// HTTP-level responses (200s, the shard's own 429/404/4xx) are passed
// through verbatim with an X-Dronet-Shard header naming the serving
// process. A shard whose in-flight pipe is full sheds here with a 429 —
// for a keyed request that is the answer (its owner is overloaded;
// rerouting would break camera affinity), for a keyless one the balancer
// already picked among live shards.
//
// Resilience controls, in the order a request meets them: a malformed
// X-Dronet-Deadline/?deadline_ms is a 400; an expired deadline is a 504
// before (or between) forwards, and a forward cut short by the deadline
// firing mid-flight is a 504 that does NOT penalize the shard's breaker —
// the client ran out of time, the shard did nothing wrong. Failover is
// walk's: budgeted, backed off, 503 + Retry-After when it dead-ends. Every
// response carries X-Dronet-Attempts.
func (p *Proxy) handleForward(w http.ResponseWriter, r *http.Request) {
	p.received.Add(1)
	if r.Method != http.MethodPost {
		serve.WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	budget, err := serve.ParseDeadline(r)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var deadline time.Time
	ctx := r.Context()
	if budget > 0 {
		deadline = time.Now().Add(budget)
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	body, err := readForwardBody(w, r)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	defer body.release()
	stamp := func(attempts int) { w.Header().Set(AttemptsHeader, strconv.Itoa(attempts)) }
	attempts, status, msg := p.walk(cameraKey(r), "", deadline, func(s *shardState, n int) bool {
		if !s.acquire() {
			stamp(n)
			w.Header().Set("Retry-After", retryAfterBackpressure)
			w.Header().Set("X-Dronet-Shard", s.label())
			serve.WriteError(w, http.StatusTooManyRequests, "shard %s at forwarding capacity", s.label())
			return true
		}
		resp, err := p.forward(ctx, r, s, body, deadline)
		s.release()
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				// The request's own deadline fired mid-forward. The shard
				// is not at fault: no breaker penalty, no failover (there
				// is no time left to spend on one).
				p.deadlineExceeded.Add(1)
				stamp(n)
				serve.WriteError(w, http.StatusGatewayTimeout, "deadline exceeded forwarding to %s after %d attempts", s.label(), n)
				return true
			}
			// Transport-level failure: the shard never produced an HTTP
			// response. Feed the breaker and fail over with the buffered
			// body; the request's camera stays keyed so the ring walk picks
			// the next breaker-closed owner deterministically.
			s.errors.Add(1)
			s.br.RecordData(false)
			p.failovers.Add(1)
			return false
		}
		s.forwarded.Add(1)
		s.br.RecordData(true)
		p.retry.Success()
		stamp(n)
		relay(w, resp, s.label())
		return true
	})
	if status != 0 {
		stamp(attempts)
		refuse(w, status, msg)
	}
}

// forward sends the buffered request to one shard, preserving the path,
// query string (?model=, ?altitude=, ?camera=) and headers (X-Model,
// X-Camera-ID, Content-Type) — the shard sees exactly what the client
// sent, except X-Dronet-Deadline, which is restamped with the budget
// REMAINING at forward time so the shard's admission and batcher reason
// about the true end-to-end deadline, not the client's original estimate.
// The cluster.forward#<addr> fault site injects transport-level failures
// before any bytes leave the proxy.
func (p *Proxy) forward(ctx context.Context, r *http.Request, s *shardState, body *forwardBody, deadline time.Time) (*http.Response, error) {
	if err := faults.Fire("cluster.forward", s.addr); err != nil {
		return nil, err
	}
	url := "http://" + s.addr + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
	if err != nil {
		return nil, err
	}
	body.attach(req)
	for k, vs := range r.Header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	if !deadline.IsZero() {
		ms := time.Until(deadline).Milliseconds()
		if ms < 1 {
			ms = 1 // expired-in-transit: let the shard classify it as a 504
		}
		req.Header.Set(serve.DeadlineHeader, strconv.FormatInt(ms, 10))
	}
	return p.client.Do(req)
}

// relay copies a shard response to the client, stamping the serving shard.
func relay(w http.ResponseWriter, resp *http.Response, shardLabel string) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("X-Dronet-Shard", shardLabel)
	w.WriteHeader(resp.StatusCode)
	_, _ = copyPooled(w, resp.Body)
}

// copyBufs recycles the buffers bodies are copied through on their way to
// and from a shard.
var copyBufs = sync.Pool{New: func() any { return new([32 << 10]byte) }}

// copyPooled copies src to dst through a pooled buffer. dst's own ReadFrom,
// if it has one, is bypassed: net's allocates a fresh 32kB buffer per call.
func copyPooled(dst io.Writer, src io.Reader) (int64, error) {
	buf := copyBufs.Get().(*[32 << 10]byte)
	defer copyBufs.Put(buf)
	return io.CopyBuffer(struct{ io.Writer }{dst}, src, buf[:])
}

// shardConn is the proxy's connection to a shard. The transport writes
// every request body through its ReadFrom.
type shardConn struct{ net.Conn }

func (c shardConn) ReadFrom(r io.Reader) (int64, error) { return copyPooled(c.Conn, r) }

// liveCount is the number of shards whose breaker is closed — the shards
// the data plane will route to right now.
func (p *Proxy) liveCount() int {
	n := 0
	for _, s := range p.shards {
		if s.br.Allow() {
			n++
		}
	}
	return n
}

// handleHealthz reports the proxy's own view of the fleet: ring membership
// and per-shard breaker status. "ok" means every shard's breaker is
// closed, "degraded" that at least one is open or half-open but traffic
// still flows, and the proxy answers 503 only when NO breaker is closed
// (the fleet cannot serve at all).
func (p *Proxy) handleHealthz(w http.ResponseWriter, r *http.Request) {
	live := p.liveCount()
	status := "ok"
	code := http.StatusOK
	switch {
	case live == 0:
		status = "down"
		code = http.StatusServiceUnavailable
	case live < len(p.shards):
		status = "degraded"
	}
	shards := make(map[string]any, len(p.shards))
	for addr, s := range p.shards {
		br := s.br.snapshot()
		shards[addr] = map[string]any{
			"shard_id":                s.label(),
			"addr":                    addr,
			"alive":                   br.State == "closed",
			"breaker_state":           br.State,
			"breaker_opened_total":    br.OpenedTotal,
			"breaker_half_open_total": br.HalfOpenTotal,
			"breaker_reclosed_total":  br.ReclosedTotal,
			"consecutive_fails":       br.ProbeFails,
			"inflight":                len(s.inflight),
			"max_inflight":            cap(s.inflight),
			"forwarded_total":         s.forwarded.Load(),
			"shed_total":              s.shed.Load(),
			"errors_total":            s.errors.Load(),
		}
	}
	serve.WriteJSON(w, code, map[string]any{
		"status":              status,
		"role":                "proxy",
		"ring_members":        p.ring.Members(),
		"vnodes":              p.ring.vnodes,
		"live_shards":         live,
		"total_shards":        len(p.shards),
		"retry_budget_tokens": p.retry.Tokens(),
		"stream_sessions":     p.streamSessions.Load(),
		"streams_total":       p.streamsTotal.Load(),
		"stream_resumes":      p.streamResumes.Load(),
		"max_streams":         p.cfg.MaxStreamSessions,
		"shards":              shards,
	})
}

// ShardAddrs returns the configured shard addresses, sorted (test and
// tooling introspection).
func (p *Proxy) ShardAddrs() []string {
	addrs := make([]string, 0, len(p.shards))
	for a := range p.shards {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	return addrs
}
