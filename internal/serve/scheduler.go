package serve

import "sync"

// scheduler is the cross-model work-stealing coordinator. Each hosted model
// keeps its strict per-pool batch workers — those never consult the
// scheduler for permission, which is what guarantees a lender is never
// starved by its own generosity — but when a pool's forming batch of two or
// more finds every local worker busy, its batcher asks the scheduler for a
// BORROWED slot: permission to run one extra concurrent batch on a
// lazily-grown replica of its own engine, consuming fleet capacity another
// pool is leaving idle.
//
// The grant rule is deliberately simple:
//
//  1. the asking pool's own workers must all be busy (borrowing is for
//     backlog, not for racing the local pool), and
//  2. the fleet must have spare capacity (total executing batches below the
//     summed nominal worker count), and
//  3. weighted fairness: if another pool is hungry (has a batch it could
//     not place) with a smaller active/weight load ratio, the slot
//     is left for it.
//
// Because local execution never waits on the scheduler, a lender whose
// traffic returns simply starts executing — the fleet transiently runs
// above nominal capacity until the borrowed batch finishes, trading a brief
// CPU oversubscription for a hard no-starvation guarantee. Accounting is
// event-driven (counters updated at batch start/end), so a denied borrow is
// retried at the pool's next dispatch opportunity rather than by spinning.
type scheduler struct {
	mu       sync.Mutex
	capacity int // summed nominal workers of every registered pool
	busy     int // batches executing fleet-wide (local + borrowed)
	pools    map[*hosted]*poolState
}

// poolState is one pool's scheduler-side accounting.
type poolState struct {
	nominal     int     // the pool's own worker count
	weight      float64 // fair-share weight from the model spec (>= smallest positive)
	localActive int     // batches executing on the pool's own workers
	active      int     // batches executing for this pool (local + borrowed)
	borrowed    int     // borrowed batches executing right now
	hungry      bool    // had a batch it could not place
	freeIDs     []int   // returned borrowed engine worker ids, reused before growing
	nextBorrow  int     // next fresh borrowed id offset (ids start at nominal)
}

func newScheduler() *scheduler {
	return &scheduler{pools: make(map[*hosted]*poolState)}
}

// register adds a pool to the fleet capacity accounting.
func (s *scheduler) register(h *hosted) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pools[h] = &poolState{nominal: h.eng.Workers(), weight: h.weight}
	s.capacity += h.eng.Workers()
}

// unregister removes a fully-drained pool. The caller must have waited for
// the pool's workers and borrowed goroutines to exit first, so active is
// normally zero; any residue is subtracted defensively.
func (s *scheduler) unregister(h *hosted) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ps, ok := s.pools[h]
	if !ok {
		return
	}
	s.capacity -= ps.nominal
	s.busy -= ps.active
	delete(s.pools, h)
}

// tryBorrow asks for a borrowed execution slot for one batch of h.
// On a grant it returns the engine worker id the borrowed batch must run on
// (ids at or above the pool's nominal worker count address lazily-grown
// replicas) and reserves the slot; the caller must release it with
// endBorrow. On a denial the pool is flagged hungry so fairer-share pools
// defer to it on their next ask.
func (s *scheduler) tryBorrow(h *hosted) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ps, ok := s.pools[h]
	if !ok {
		return 0, false
	}
	if ps.localActive < ps.nominal {
		// A local worker has no batch handed off or executing — it is parked
		// at the receive (or moments from it): let the strict pool take the
		// batch rather than paying for an extra replica.
		return 0, false
	}
	if s.busy >= s.capacity {
		ps.hungry = true
		return 0, false
	}
	// Weighted max-min fairness: the spare slot goes to the hungry pool with
	// the smallest active/weight ratio. Only deny h when a HUNGRIER pool
	// exists — an idle pool has no claim on capacity it is not asking for.
	myLoad := float64(ps.active) / ps.weight
	for other, os := range s.pools {
		if other != h && os.hungry && float64(os.active)/os.weight < myLoad {
			ps.hungry = true
			return 0, false
		}
	}
	ps.hungry = false
	var id int
	if n := len(ps.freeIDs); n > 0 {
		id = ps.freeIDs[n-1]
		ps.freeIDs = ps.freeIDs[:n-1]
	} else {
		id = ps.nominal + ps.nextBorrow
		ps.nextBorrow++
	}
	h.eng.SetWorkerCap(id + 1)
	s.busy++
	ps.active++
	ps.borrowed++
	return id, true
}

// endBorrow releases a borrowed slot granted by tryBorrow.
func (s *scheduler) endBorrow(h *hosted, id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ps, ok := s.pools[h]
	if !ok {
		return
	}
	s.busy--
	ps.active--
	ps.borrowed--
	ps.freeIDs = append(ps.freeIDs, id)
}

// beginLocal / endLocal bracket a batch owned by one of the pool's own
// workers. The batcher calls beginLocal the moment a handoff SUCCEEDS (the
// batches channel is unbuffered, so a completed send means a worker holds
// the batch), not when the worker gets scheduled and starts executing:
// under GOMAXPROCS=1 the batcher often probes tryBorrow in exactly the
// window where a worker has accepted a batch but not yet run a single
// instruction, and pickup-time accounting made that window read as "a
// local worker is idle", deterministically starving the borrow path. The
// worker calls endLocal when the batch finishes. They only maintain
// counters — local execution is never gated on the scheduler (the
// no-starvation guarantee).
func (s *scheduler) beginLocal(h *hosted) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ps, ok := s.pools[h]; ok {
		ps.localActive++
		ps.active++
		s.busy++
	}
}

func (s *scheduler) endLocal(h *hosted) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ps, ok := s.pools[h]; ok {
		ps.localActive--
		ps.active--
		s.busy--
	}
}

// dispatched clears the pool's hungry flag once a batch has been handed off
// by any path (local worker or borrowed slot).
func (s *scheduler) dispatched(h *hosted) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ps, ok := s.pools[h]; ok {
		ps.hungry = false
	}
}

// borrowedNow reports the pool's currently-borrowed worker count (the
// /healthz gauge; /metrics carries the same figure via the metrics object).
func (s *scheduler) borrowedNow(h *hosted) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ps, ok := s.pools[h]; ok {
		return ps.borrowed
	}
	return 0
}
