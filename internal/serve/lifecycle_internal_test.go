package serve

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestCancelledDroppedAtAssembly: an admitted request whose client context
// is already done must be dropped at batch assembly — answered with
// errCancelled, counted in cancelled_total, and kept out of the
// completed/failed tallies — while live requests in the same stream are
// served normally.
func TestCancelledDroppedAtAssembly(t *testing.T) {
	srv := newTestServer(t)
	defer srv.Close()
	h := srv.table.Load().byName["only"]

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 3; i++ {
		if _, _, err := srv.detect(dead, h, testImage(), 0, time.Time{}); !errors.Is(err, errCancelled) {
			t.Fatalf("pre-cancelled request %d: err=%v, want errCancelled", i, err)
		}
	}
	resp, _, err := srv.detect(context.Background(), h, testImage(), 0, time.Time{})
	if err != nil || resp.err != nil {
		t.Fatalf("live request after cancelled ones: err=%v resp.err=%v", err, resp.err)
	}

	st, ok := srv.ModelStats("only")
	if !ok {
		t.Fatal("no stats for only")
	}
	if st.CancelledTotal != 3 || st.Completed != 1 || st.Failed != 0 || st.Received != 4 {
		t.Errorf("model counters: cancelled=%d completed=%d failed=%d received=%d, want 3/1/0/4",
			st.CancelledTotal, st.Completed, st.Failed, st.Received)
	}
	if fleet := srv.Stats(); fleet.CancelledTotal != 3 || fleet.Completed != 1 || fleet.Received != 4 {
		t.Errorf("fleet counters: cancelled=%d completed=%d received=%d, want 3/1/4",
			fleet.CancelledTotal, fleet.Completed, fleet.Received)
	}
}

// TestInferRetiredPoolExhaustsRetries drives the one path of the request
// spine no end-to-end test reaches: the resolved pool is retired and no
// fresh table ever arrives. infer must give up after maxRouteRetries
// attempts with a 503 + Retry-After, count the request in
// retries_exhausted_total (and nowhere else — a stale resolution is
// metrics-silent), and have drawn one retry-budget token per re-resolve.
// Both transports encode this outcome, so one test covers both.
func TestInferRetiredPoolExhaustsRetries(t *testing.T) {
	srv := newTestServer(t)
	defer srv.Close()
	h := srv.table.Load().byName["only"]
	srv.admitMu.Lock()
	h.retired = true // fenced like retire does, but still in the table
	srv.admitMu.Unlock()

	out := srv.infer(context.Background(), routeSel{}, testImage(), time.Time{}, true)
	if out.status != 503 || !out.retryAfter {
		t.Fatalf("infer on a retired pool: status %d retryAfter %v (%s), want 503 with Retry-After", out.status, out.retryAfter, out.msg)
	}
	st := srv.Stats()
	if st.RetriesExhaustedTotal != 1 || st.Received != 0 || st.Rejected != 0 {
		t.Fatalf("retries_exhausted_total %d received %d rejected %d, want 1/0/0", st.RetriesExhaustedTotal, st.Received, st.Rejected)
	}
	if want := float64(serverRetryBudget - (maxRouteRetries - 1)); st.RetryBudgetTokens != want {
		t.Fatalf("retry budget at %v tokens, want %v (one drawn per re-resolve)", st.RetryBudgetTokens, want)
	}
}
