package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/models"
	"repro/internal/tensor"
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

// borrowEngine builds a real engine with n workers for scheduler tests —
// tryBorrow raises the engine's worker cap on a grant, so a stub won't do.
func borrowEngine(t *testing.T, workers int) *engine.Engine {
	t.Helper()
	net, _, err := models.Build(models.DroNet, 64, tensor.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(net, engine.Config{Workers: workers, Thresh: 0.1, NMSThresh: 0.45})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Free)
	return e
}

// TestSchedulerBorrowRules drives the work-stealing grant rules directly:
// no borrowing while a local worker is idle, replica ids start at the
// nominal pool size and raise the engine cap, saturation denies and marks
// the pool hungry, a hungrier pool is deferred to, dispatch clears hunger,
// and a freed replica id is reused before the pool grows again.
func TestSchedulerBorrowRules(t *testing.T) {
	s := newScheduler()
	hA := &hosted{eng: borrowEngine(t, 2), weight: 1}
	hB := &hosted{eng: borrowEngine(t, 1), weight: 1}
	s.register(hA)
	s.register(hB)
	if s.capacity != 3 {
		t.Fatalf("capacity = %d, want 3", s.capacity)
	}

	// 1. A local worker is idle: deny, and do NOT mark the pool hungry —
	// it has a strict worker about to take the batch.
	if _, ok := s.tryBorrow(hA); ok {
		t.Fatal("borrow granted while the pool's own workers are idle")
	}
	if s.pools[hA].hungry {
		t.Fatal("local-idle denial marked the pool hungry")
	}

	// 2. All local workers busy + fleet has spare capacity: grant the first
	// replica id (== nominal) and raise the engine's worker cap to admit it.
	s.beginLocal(hA)
	s.beginLocal(hA)
	id, ok := s.tryBorrow(hA)
	if !ok || id != 2 {
		t.Fatalf("first borrow: id=%d ok=%v, want id 2 granted", id, ok)
	}
	if cap := hA.eng.WorkerCap(); cap != 3 {
		t.Fatalf("engine cap after grant = %d, want 3", cap)
	}
	if s.borrowedNow(hA) != 1 {
		t.Fatalf("borrowedNow = %d, want 1", s.borrowedNow(hA))
	}

	// 3. Fleet saturated (busy == capacity): deny and mark hungry.
	if _, ok := s.tryBorrow(hA); ok {
		t.Fatal("borrow granted beyond fleet capacity")
	}
	if !s.pools[hA].hungry {
		t.Fatal("saturation denial did not mark the pool hungry")
	}

	// 4. endBorrow frees the slot and banks the replica id for reuse.
	s.endBorrow(hA, id)
	if s.borrowedNow(hA) != 0 {
		t.Fatalf("borrowedNow after endBorrow = %d, want 0", s.borrowedNow(hA))
	}

	// 5. Weighted fairness: a hungrier pool (smaller active/weight) is
	// deferred to even when capacity is spare.
	s.beginLocal(hB)
	if _, ok := s.tryBorrow(hB); ok {
		t.Fatal("borrow granted at saturation for hB")
	}
	if !s.pools[hB].hungry {
		t.Fatal("hB not marked hungry")
	}
	s.endLocal(hB) // hB idle now, but still flagged hungry
	if _, ok := s.tryBorrow(hA); ok {
		t.Fatal("borrow granted to hA while hungrier hB waits")
	}
	if !s.pools[hA].hungry {
		t.Fatal("fairness denial did not mark hA hungry")
	}

	// 6. dispatched clears hunger; the freed replica id is reused before
	// the pool grows a new one.
	s.dispatched(hB)
	id2, ok := s.tryBorrow(hA)
	if !ok || id2 != 2 {
		t.Fatalf("post-dispatch borrow: id=%d ok=%v, want freed id 2 reused", id2, ok)
	}
	if s.pools[hA].hungry {
		t.Fatal("grant did not clear hA's hungry flag")
	}
	s.endBorrow(hA, id2)
	s.endLocal(hA)
	s.endLocal(hA)

	// 7. unregister returns the pool's capacity.
	s.unregister(hA)
	s.unregister(hB)
	if s.capacity != 0 || s.busy != 0 {
		t.Fatalf("after unregister: capacity=%d busy=%d, want 0/0", s.capacity, s.busy)
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
