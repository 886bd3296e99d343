package serve_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/imgproc"
	"repro/internal/serve"
)

// TestBatchGrowsOnlyWhileWorkersBusy pins the batcher's one dispatch rule:
// a request waits only while every worker is busy. Each step is observed
// through the model's Stats, so no part of it depends on timing.
func TestBatchGrowsOnlyWhileWorkersBusy(t *testing.T) {
	frames := testFrames(1)

	t.Run("held worker", func(t *testing.T) {
		// Request 1 finds the worker idle and runs alone; the next k queue
		// behind the held worker and leave as one batch when it frees up.
		const k = 4
		srv, ts := batchingServer(t, 1, "")
		armFaults(t, "serve.batch=stall")
		wait := postAsync(t, ts, frames[0], "", 1)
		waitStats(t, srv, "default", "request 1 executing", func(st serve.Stats) bool {
			return st.Batches == 0 && st.BusySeconds > 0
		})
		wait2 := postAsync(t, ts, frames[0], "", k)
		waitStats(t, srv, "default", "requests 2..k+1 absorbed", func(st serve.Stats) bool {
			return st.Received == 1+k && st.QueueDepth == 0
		})
		faults.Disarm()
		wait()
		wait2()
		if st, _ := srv.ModelStats("default"); !reflect.DeepEqual(st.BatchHist, map[int]int{1: 1, k: 1}) {
			t.Errorf("batch histogram %v, want {1:1 %d:1}", st.BatchHist, k)
		}
	})

	t.Run("idle workers", func(t *testing.T) {
		// Two requests at once against two idle workers: neither waits for
		// the other.
		srv, ts := batchingServer(t, 2, "")
		postAsync(t, ts, frames[0], "", 2)()
		if st, _ := srv.ModelStats("default"); !reflect.DeepEqual(st.BatchHist, map[int]int{1: 2}) {
			t.Errorf("batch histogram %v, want {1:2}", st.BatchHist)
		}
	})

	t.Run("lone request does not borrow", func(t *testing.T) {
		// The busy pool's worker is held while the idle pool leaves fleet
		// capacity to lend. Request 2 waits alone without borrowing; request 3
		// makes it a batch of two, which does borrow.
		srv, ts := batchingServer(t, 1, "idle")
		armFaults(t, "serve.batch#default=stall")
		wait1 := postAsync(t, ts, frames[0], "default", 1)
		waitStats(t, srv, "default", "request 1 executing", func(st serve.Stats) bool {
			return st.Batches == 0 && st.BusySeconds > 0
		})
		wait2 := postAsync(t, ts, frames[0], "default", 1)
		waitStats(t, srv, "default", "request 2 absorbed", func(st serve.Stats) bool {
			return st.Received == 2 && st.QueueDepth == 0
		})
		if st, _ := srv.ModelStats("default"); st.BorrowsTotal != 0 {
			t.Fatalf("a lone request borrowed: borrows_total %d", st.BorrowsTotal)
		}
		wait3 := postAsync(t, ts, frames[0], "default", 1)
		waitStats(t, srv, "default", "the pair borrowed", func(st serve.Stats) bool {
			return st.BorrowsTotal == 1
		})
		faults.Disarm()
		wait1()
		wait2()
		wait3()
		st, _ := srv.ModelStats("default")
		if !reflect.DeepEqual(st.BatchHist, map[int]int{1: 1, 2: 1}) || st.BorrowsTotal != 1 {
			t.Errorf("batch histogram %v with %d borrows, want {1:1 2:1} with 1", st.BatchHist, st.BorrowsTotal)
		}
	})
}

// batchingServer serves one fresh model as "default" on the given number of
// workers, plus a one-worker "idle" model when idle is set.
func batchingServer(t *testing.T, workers int, idle string) (*serve.Server, *httptest.Server) {
	t.Helper()
	cfg := serve.Config{MaxBatch: 8, QueueDepth: 16}
	entries := []serve.ModelEntry{{Name: "default", Engine: newEngine(t, buildNet(t), workers), Config: cfg}}
	if idle != "" {
		entries = append(entries, serve.ModelEntry{Name: idle, Engine: newEngine(t, buildNet(t), 1), Config: cfg})
	}
	srv, err := serve.NewRouted(entries)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// postAsync posts n copies of img to model (the default route when empty),
// each on its own goroutine, and returns a function that waits for all of
// them and reports any answer other than a 200.
func postAsync(t *testing.T, ts *httptest.Server, img *imgproc.Image, model string, n int) func() {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, code, err := postRouted(ts, img, model, "", 0)
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("status %d", code)
			}
			errs <- err
		}()
	}
	return func() {
		t.Helper()
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Error(err)
			}
		}
	}
}

// waitStats polls the named model's Stats until cond holds, yielding the
// processor between polls; it fails the test after 10s.
func waitStats(t *testing.T, srv *serve.Server, model, what string, cond func(serve.Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _ := srv.ModelStats(model)
		if cond(st) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("waiting for %s: stats %+v", what, st)
		}
		runtime.Gosched()
	}
}
