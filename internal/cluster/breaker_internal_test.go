package cluster

import (
	"testing"
	"time"
)

func testBreaker(cooldown time.Duration) *breaker {
	return newBreaker(breakerConfig{
		window:        4,
		minSamples:    4,
		cooldown:      cooldown,
		failThreshold: 2,
	})
}

// TestBreakerDataErrorRateOpens drives the data-plane trigger: the breaker
// stays closed below minSamples and below the error rate, opens exactly at
// the windowed threshold, and a successful probe re-closes it with a clean
// window.
func TestBreakerDataErrorRateOpens(t *testing.T) {
	b := testBreaker(time.Hour)
	if !b.Allow() {
		t.Fatal("fresh breaker not closed")
	}
	// Three outcomes (2 bad) — under minSamples, must stay closed.
	b.RecordData(false)
	b.RecordData(true)
	b.RecordData(false)
	if !b.Allow() {
		t.Fatal("breaker opened below minSamples")
	}
	// Fourth outcome brings the window to 4 samples at 50% errors: open.
	b.RecordData(true)
	if b.Allow() {
		t.Fatal("breaker still closed at the error-rate threshold")
	}
	if s := b.snapshot(); s.State != "open" || s.OpenedTotal != 1 {
		t.Fatalf("snapshot after trip: %+v", s)
	}
	// A successful probe is the recovery path, and it resets the window:
	// the stale pre-outage errors must not re-trip the breaker on the next
	// single failure.
	b.RecordProbe(true)
	if !b.Allow() {
		t.Fatal("probe success did not re-close the breaker")
	}
	b.RecordData(false)
	b.RecordData(true)
	b.RecordData(true)
	b.RecordData(true)
	if !b.Allow() {
		t.Fatal("stale window survived recovery: one fresh error re-tripped")
	}
	if s := b.snapshot(); s.ReclosedTotal != 1 {
		t.Fatalf("reclosed_total = %d, want 1", s.ReclosedTotal)
	}
}

// TestBreakerProbeStreakOpens drives the control-plane trigger: probe
// failures below the streak threshold leave the breaker closed, the
// threshold opens it, and a success anywhere resets the streak.
func TestBreakerProbeStreakOpens(t *testing.T) {
	b := testBreaker(time.Hour)
	b.RecordProbe(false)
	if !b.Allow() {
		t.Fatal("one probe failure opened the breaker (threshold 2)")
	}
	b.RecordProbe(true) // streak reset
	b.RecordProbe(false)
	if !b.Allow() {
		t.Fatal("streak survived an intervening success")
	}
	b.RecordProbe(false) // second consecutive failure: threshold reached
	if b.Allow() {
		t.Fatal("breaker closed after hitting the probe-failure streak")
	}
}

// TestBreakerHalfOpenCycle drives open → half-open → open → half-open →
// closed: probes are suppressed during the cooldown, the first probe after
// it is the half-open trial, a failed trial re-opens (and re-arms the
// cooldown), a successful one closes. The breaker runs on a test clock, so
// the cooldown is crossed by moving it, not by sleeping.
func TestBreakerHalfOpenCycle(t *testing.T) {
	b := testBreaker(30 * time.Millisecond)
	now := time.Unix(0, 0)
	b.now = func() time.Time { return now }
	b.RecordProbe(false)
	b.RecordProbe(false) // open
	if b.AllowProbe() {
		t.Fatal("probe allowed during cooldown")
	}
	now = now.Add(40 * time.Millisecond)
	if !b.AllowProbe() {
		t.Fatal("probe still suppressed after cooldown")
	}
	if s := b.snapshot(); s.State != "half-open" || s.HalfOpenTotal != 1 {
		t.Fatalf("snapshot after cooldown probe: %+v", s)
	}
	if b.Allow() {
		t.Fatal("data plane allowed during half-open: the trial belongs to the prober")
	}
	// Failed trial: straight back to open, cooldown re-armed.
	b.RecordProbe(false)
	if b.AllowProbe() {
		t.Fatal("probe allowed immediately after a failed half-open trial")
	}
	now = now.Add(40 * time.Millisecond)
	if !b.AllowProbe() {
		t.Fatal("second half-open trial suppressed after re-armed cooldown")
	}
	b.RecordProbe(true)
	if !b.Allow() {
		t.Fatal("successful half-open trial did not close the breaker")
	}
	if s := b.snapshot(); s.State != "closed" || s.HalfOpenTotal != 2 || s.ReclosedTotal != 1 {
		t.Fatalf("snapshot after recovery: %+v", s)
	}
}
