package cluster

import (
	"sync"
	"time"
)

// Breaker states. String forms appear on /healthz and /metrics.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breakerErrorRate is the windowed data error rate at or above which a
// breaker opens.
const breakerErrorRate = 0.5

// breakerConfig tunes one shard's circuit breaker (see ProxyConfig for the
// user-facing knobs and defaults).
type breakerConfig struct {
	window        int           // data-outcome ring size
	minSamples    int           // outcomes required before the rate can trip
	cooldown      time.Duration // open → half-open delay
	failThreshold int           // consecutive probe failures that open
}

// breaker is a per-shard closed/open/half-open circuit breaker replacing
// the old boolean liveness flag. Two independent pieces of evidence can
// open it: a window of data-plane forward outcomes crossing the error-rate
// threshold (a shard failing real traffic), or a streak of consecutive
// health-probe failures (a shard failing its control plane even with no
// traffic). While open, the data plane routes around the shard and probes
// are suppressed for the cooldown; the first probe after the cooldown is
// the HALF-OPEN trial — the health prober is deliberately the single
// half-open probe, so recovery is proven by a full control-plane round
// trip before any client request is gambled on the shard.
type breaker struct {
	mu  sync.Mutex
	cfg breakerConfig

	state    int
	openedAt time.Time

	outcomes []bool // data-plane forward outcomes, ring
	next     int
	count    int
	errs     int // failures currently in the ring

	probeFails int // consecutive probe-failure streak

	// Transition counters for /healthz and /metrics: how many times the
	// breaker opened, went half-open, and re-closed from half-open.
	opened   uint64
	halfOpen uint64
	reclosed uint64

	// now is the breaker's clock; nil means time.Now. Tests move it to
	// cross the cooldown without sleeping.
	now func() time.Time
}

func newBreaker(cfg breakerConfig) *breaker {
	return &breaker{cfg: cfg, outcomes: make([]bool, cfg.window)}
}

// Allow reports whether the data plane may route to this shard: only a
// CLOSED breaker carries traffic. Half-open is not enough — the single
// trial belongs to the health prober, not to a client's request.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == breakerClosed
}

// RecordData feeds one data-plane forward outcome (transport-level: did
// the shard produce an HTTP response at all) into the error-rate window,
// opening the breaker when the window crosses the threshold.
func (b *breaker) RecordData(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.count == b.cfg.window {
		if !b.outcomes[b.next] {
			b.errs--
		}
	} else {
		b.count++
	}
	b.outcomes[b.next] = ok
	b.next = (b.next + 1) % b.cfg.window
	if !ok {
		b.errs++
	}
	if b.state == breakerClosed && b.count >= b.cfg.minSamples &&
		float64(b.errs) >= breakerErrorRate*float64(b.count) {
		b.trip()
	}
}

// AllowProbe gates the health prober: probes always run while closed or
// half-open, and while OPEN they are suppressed until the cooldown
// elapses — at which point the breaker transitions to half-open and this
// probe becomes the recovery trial.
func (b *breaker) AllowProbe() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerOpen {
		return true
	}
	if b.clock().Sub(b.openedAt) < b.cfg.cooldown {
		return false
	}
	b.state = breakerHalfOpen
	b.halfOpen++
	return true
}

// RecordProbe feeds one health-probe outcome. A successful probe closes
// the breaker from any state (it is the only re-admission path, exactly
// as before the breaker existed); a failed one extends the streak, opens
// a closed breaker at the threshold, and sends a half-open breaker
// straight back to open (the trial failed — wait out another cooldown).
func (b *breaker) RecordProbe(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.probeFails = 0
		if b.state != breakerClosed {
			b.state = breakerClosed
			b.reclosed++
			// A recovered shard starts with a clean record: stale errors
			// from before the outage must not instantly re-trip it.
			b.count, b.next, b.errs = 0, 0, 0
		}
		return
	}
	b.probeFails++
	switch b.state {
	case breakerClosed:
		if b.probeFails >= b.cfg.failThreshold {
			b.trip()
		}
	case breakerHalfOpen:
		b.state = breakerOpen
		b.openedAt = b.clock()
	}
}

// trip opens the breaker. Callers hold b.mu.
func (b *breaker) trip() {
	b.state = breakerOpen
	b.openedAt = b.clock()
	b.opened++
}

// clock reads the breaker's clock. Callers hold b.mu.
func (b *breaker) clock() time.Time {
	if b.now == nil {
		return time.Now()
	}
	return b.now()
}

// BreakerSnapshot is the observable state exported on /healthz + /metrics.
type BreakerSnapshot struct {
	State         string `json:"breaker_state"`
	OpenedTotal   uint64 `json:"breaker_opened_total"`
	HalfOpenTotal uint64 `json:"breaker_half_open_total"`
	ReclosedTotal uint64 `json:"breaker_reclosed_total"`
	ProbeFails    int    `json:"consecutive_probe_fails"`
}

func (b *breaker) snapshot() BreakerSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := BreakerSnapshot{
		OpenedTotal:   b.opened,
		HalfOpenTotal: b.halfOpen,
		ReclosedTotal: b.reclosed,
		ProbeFails:    b.probeFails,
	}
	switch b.state {
	case breakerOpen:
		s.State = "open"
	case breakerHalfOpen:
		s.State = "half-open"
	default:
		s.State = "closed"
	}
	return s
}
