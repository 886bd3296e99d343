package serve

import (
	"math/bits"
	"sync"
	"time"
)

// Stats is the machine-readable snapshot served by /metrics. A routed
// server produces one Stats per hosted model plus a fleet aggregate (see
// MetricsReport).
type Stats struct {
	UptimeSeconds float64 `json:"uptime_s"`

	// Model is the hosted model's route name on a per-model snapshot, and
	// empty on the fleet aggregate.
	Model string `json:"model,omitempty"`

	// ShardID and Addr identify the serving PROCESS that produced this
	// snapshot (Server.SetIdentity), so per-shard blocks aggregated by a
	// fronting proxy stay attributable. Empty on a server that never set an
	// identity, and on rollups spanning several shards.
	ShardID string `json:"shard_id,omitempty"`
	Addr    string `json:"addr,omitempty"`

	// Precision labels the numeric path serving these requests ("fp32" or
	// "int8"), so metrics scraped from mixed-precision deployments stay
	// attributable. The fleet aggregate reports "mixed" when hosted models
	// differ.
	Precision string `json:"precision"`

	// MaxAltitude is the model's altitude-routing ceiling in metres (0 when
	// the model takes no part in altitude routing; always 0 on the fleet
	// aggregate).
	MaxAltitude float64 `json:"max_altitude_m,omitempty"`

	// Generation is the serving pool's lifecycle tag on a per-model
	// snapshot (absent on the fleet aggregate): every pool start — initial
	// registration, hot add, or swap replacement — mints a fresh
	// server-unique generation, and /detect responses echo the tag of the
	// pool that computed them.
	Generation uint64 `json:"generation,omitempty"`

	// Request counters: Received counts every admission attempt, Rejected
	// the 429/503 turnaways, Completed successful responses, Failed
	// responses that errored during inference.
	Received  uint64 `json:"received"`
	Rejected  uint64 `json:"rejected"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`

	// CancelledTotal counts admitted requests dropped at batch-assembly
	// time because the client's context was already done — work the server
	// declined to waste a batch slot on. Disjoint from Completed/Failed.
	CancelledTotal uint64 `json:"cancelled_total"`

	// DeadlineExceededTotal counts requests whose end-to-end deadline
	// (X-Dronet-Deadline / ?deadline_ms=) expired in the server's hands:
	// on arrival (rejected before the queue), at batch assembly (remaining
	// budget below the pool's observed service time — dropped before any
	// kernel ran), or after execution (answer computed but late). Only the
	// last category also appears in Failed; the first two are disjoint
	// from Completed/Failed, which is the accounting that proves expired
	// work was dropped pre-kernel.
	DeadlineExceededTotal uint64 `json:"deadline_exceeded_total"`

	// DegradedTotal counts implicitly-routed requests this model handed to
	// its cheaper degrade sibling under brownout (counted on the
	// overloaded model, not the sibling that absorbed the work).
	DegradedTotal uint64 `json:"degraded_total"`

	// RetryBudgetTokens is the server's current retry-budget balance (the
	// token bucket the route re-resolve loop draws from). Fleet-aggregate
	// only; omitted on per-model snapshots.
	RetryBudgetTokens float64 `json:"retry_budget_tokens,omitempty"`

	// RetriesExhaustedTotal counts requests answered 503 because every
	// pool they resolved to retired before their submit landed — possible
	// only when registry mutations outpace the bounded re-resolve loop
	// (maxRouteRetries attempts). A nonzero value under steady traffic
	// means lifecycle churn is pathological, not that requests were
	// silently dropped. Fleet-aggregate only (route resolution happens
	// before a model owns the request).
	RetriesExhaustedTotal uint64 `json:"retries_exhausted_total"`

	// BorrowsTotal always reads 0: each hosted model runs its batches on
	// its own workers only. It stays for the benchmark's serve.borrows row,
	// which reads it, until that row is retired.
	BorrowsTotal uint64 `json:"borrows_total"`

	// Streaming-session counters (fleet-aggregate only; the session tier
	// sits in front of model routing). SessionsOpen is the gauge of live
	// sessions at snapshot time; SessionsTotal counts every session ever
	// opened; SessionsEvictedIdle the ones the sweeper closed for
	// exceeding the idle timeout. StreamFramesTotal counts frames
	// received on sessions, StreamFramesDropped the ones displaced by the
	// drop-oldest backpressure policy, StreamFramesRejected the in-band
	// 429s (session backlog full or server-wide in-flight cap), and
	// StreamTracksRetired the per-session tracks that ended (miss budget
	// or session teardown).
	SessionsOpen         int    `json:"sessions_open"`
	SessionsTotal        uint64 `json:"sessions_total,omitempty"`
	SessionsEvictedIdle  uint64 `json:"sessions_evicted_idle,omitempty"`
	StreamFramesTotal    uint64 `json:"stream_frames_total,omitempty"`
	StreamFramesDropped  uint64 `json:"stream_frames_dropped,omitempty"`
	StreamFramesRejected uint64 `json:"stream_frames_rejected,omitempty"`
	StreamTracksRetired  uint64 `json:"stream_tracks_retired,omitempty"`

	// QueueDepth is the number of requests waiting at snapshot time;
	// QueueCap the bounded queue's capacity (the 429 threshold).
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	Workers    int `json:"workers"`
	MaxBatch   int `json:"max_batch"`

	// Batches counts executed micro-batches; MeanBatchSize is images per
	// batch averaged over all of them, and BatchHist maps batch size to
	// occurrence count.
	Batches       int         `json:"batches"`
	MeanBatchSize float64     `json:"mean_batch_size"`
	BatchHist     map[int]int `json:"batch_hist"`

	// End-to-end request latencies (queue wait + inference) in
	// milliseconds; Mean and Max are all-time. LatencyHist holds the last
	// 2,048–4,096 requests, each non-zero bucket's count keyed by its upper
	// bound in µs (see bucketOf), and P50/P99 are read from it.
	LatencyP50Ms  float64     `json:"latency_p50_ms"`
	LatencyP99Ms  float64     `json:"latency_p99_ms"`
	LatencyMeanMs float64     `json:"latency_mean_ms"`
	LatencyMaxMs  float64     `json:"latency_max_ms"`
	LatencyHist   map[int]int `json:"latency_hist_us"`

	// BusySeconds is the wall-clock time at least one batch was executing
	// (overlapping worker spans merged), and AggregateFPS the images pushed
	// through inference per busy second — the serving counterpart of the
	// fleet engine's aggregate throughput. Measuring against busy time
	// rather than uptime keeps the rate meaningful for a long-lived server
	// with idle gaps between traffic bursts.
	BusySeconds  float64 `json:"busy_s"`
	AggregateFPS float64 `json:"aggregate_fps"`
}

// Merge folds another process's snapshot into s, making s the aggregate of
// both; a fronting proxy rolls its shards up by folding them into the zero
// Stats. Counters, gauges, queue occupancy, workers, busy time and
// throughput sum; uptime, MaxBatch and the latency max take the larger
// side; Precision turns "mixed" when the sides differ. Latency histograms
// add and p50/p99 are re-read from the sum, exactly as one process serving
// both streams would report them (a side without a histogram adds no
// samples); the mean is weighted by completed+failed. The labels of one
// process or pool (Model, ShardID, Addr, MaxAltitude, Generation) are not
// carried. TestStatsMergeCoversEveryField fails when a numeric field is
// added to Stats and not merged here.
func (s *Stats) Merge(o Stats) {
	s.UptimeSeconds = max(s.UptimeSeconds, o.UptimeSeconds)
	switch {
	case s.Precision == "":
		s.Precision = o.Precision
	case s.Precision != o.Precision:
		s.Precision = "mixed"
	}

	// The weighted means go first: they need both sides' pre-merge weights.
	if ns, no := float64(s.Completed+s.Failed), float64(o.Completed+o.Failed); ns+no > 0 {
		s.LatencyMeanMs = (s.LatencyMeanMs*ns + o.LatencyMeanMs*no) / (ns + no)
	}
	if n := float64(s.Batches + o.Batches); n > 0 {
		s.MeanBatchSize = (s.MeanBatchSize*float64(s.Batches) + o.MeanBatchSize*float64(o.Batches)) / n
	}
	s.LatencyMaxMs = max(s.LatencyMaxMs, o.LatencyMaxMs)

	s.Received += o.Received
	s.Rejected += o.Rejected
	s.Completed += o.Completed
	s.Failed += o.Failed
	s.CancelledTotal += o.CancelledTotal
	s.DeadlineExceededTotal += o.DeadlineExceededTotal
	s.DegradedTotal += o.DegradedTotal
	s.RetryBudgetTokens += o.RetryBudgetTokens
	s.RetriesExhaustedTotal += o.RetriesExhaustedTotal
	s.BorrowsTotal += o.BorrowsTotal
	s.SessionsOpen += o.SessionsOpen
	s.SessionsTotal += o.SessionsTotal
	s.SessionsEvictedIdle += o.SessionsEvictedIdle
	s.StreamFramesTotal += o.StreamFramesTotal
	s.StreamFramesDropped += o.StreamFramesDropped
	s.StreamFramesRejected += o.StreamFramesRejected
	s.StreamTracksRetired += o.StreamTracksRetired
	s.QueueDepth += o.QueueDepth
	s.QueueCap += o.QueueCap
	s.Workers += o.Workers
	s.MaxBatch = max(s.MaxBatch, o.MaxBatch)
	s.Batches += o.Batches
	if s.BatchHist == nil && o.BatchHist != nil {
		s.BatchHist = make(map[int]int, len(o.BatchHist))
	}
	for k, v := range o.BatchHist {
		s.BatchHist[k] += v
	}
	if s.LatencyHist == nil && o.LatencyHist != nil {
		s.LatencyHist = make(map[int]int, len(o.LatencyHist))
	}
	for k, v := range o.LatencyHist {
		s.LatencyHist[k] += v
	}
	s.setPercentiles()
	s.BusySeconds += o.BusySeconds
	s.AggregateFPS += o.AggregateFPS
}

// MetricsReport is the full /metrics document of a routed server: the
// fleet-aggregate Stats flattened at the top level (so pre-registry
// scrapers keep decoding the fields they know) plus every hosted model's
// private snapshot under "models", keyed by route name.
type MetricsReport struct {
	Stats
	Models map[string]Stats `json:"models"`
}

// metrics accumulates serving statistics. All methods are safe for
// concurrent use. A pool's metrics link up to the fleet aggregate: every
// pool-level recorder counts in both, each under its own lock.
type metrics struct {
	mu sync.Mutex
	up *metrics // the fleet aggregate a pool's events also count in; nil on the fleet

	start     time.Time
	received  uint64
	rejected  uint64
	completed uint64
	failed    uint64
	cancelled uint64
	exhausted uint64 // re-resolve loop gave up: retry bound or budget (503)
	deadline  uint64 // deadline breaches: on arrival, at assembly, or late
	degraded  uint64 // requests downgraded to the brownout sibling

	// Streaming-session counters (only touched on the fleet aggregate).
	sessionsTotal  uint64
	sessionsIdle   uint64 // idle evictions
	streamFrames   uint64
	streamDropped  uint64
	streamRejected uint64
	tracksRetired  uint64

	batches     int
	batchImages int
	batchHist   map[int]int
	busySeconds float64   // closed portion of the batch-execution span union
	active      int       // batches executing right now
	activeSince time.Time // when active last rose from zero

	lat    latencyHist // the last 2,048–4,096 requests: enough for a p99
	latSum float64     // seconds, all-time, for the mean
	latMax float64

	// now is the metrics' clock; nil means time.Now. Tests step it to lay
	// out batch spans without sleeping.
	now func() time.Time
}

func newMetrics() *metrics {
	return &metrics{start: time.Now(), batchHist: make(map[int]int), lat: latencyHist{half: 2048}}
}

// each runs record on m and then on the aggregate above it, each under its
// own lock.
func (m *metrics) each(record func(*metrics)) {
	for ; m != nil; m = m.up {
		m.mu.Lock()
		record(m)
		m.mu.Unlock()
	}
}

// clock reads the metrics' clock. Callers hold m.mu.
func (m *metrics) clock() time.Time {
	if m.now == nil {
		return time.Now()
	}
	return m.now()
}

func (m *metrics) admit()  { m.each(func(m *metrics) { m.received++ }) }
func (m *metrics) reject() { m.each(func(m *metrics) { m.rejected++ }) }

// cancel records one admitted request dropped at batch assembly because
// its client context was already done.
func (m *metrics) cancel() { m.each(func(m *metrics) { m.cancelled++ }) }

// retryExhausted records one request 503'd because the bounded re-resolve
// loop ran out of attempts (or retry-budget tokens) during registry churn.
func (m *metrics) retryExhausted() {
	m.mu.Lock()
	m.exhausted++
	m.mu.Unlock()
}

// deadlineExceeded records one end-to-end deadline breach (on arrival, at
// batch assembly, or a late-completed execution).
func (m *metrics) deadlineExceeded() { m.each(func(m *metrics) { m.deadline++ }) }

// degrade records one request downgraded to the brownout sibling.
func (m *metrics) degrade() { m.each(func(m *metrics) { m.degraded++ }) }

// Streaming-session recorders: one session opened, one idle eviction, one
// frame received, one frame displaced by drop-oldest, one in-band 429, one
// tracker track retired.
func (m *metrics) streamSession() { m.mu.Lock(); m.sessionsTotal++; m.mu.Unlock() }
func (m *metrics) streamEvict()   { m.mu.Lock(); m.sessionsIdle++; m.mu.Unlock() }
func (m *metrics) streamFrame()   { m.mu.Lock(); m.streamFrames++; m.mu.Unlock() }
func (m *metrics) streamDrop()    { m.mu.Lock(); m.streamDropped++; m.mu.Unlock() }
func (m *metrics) streamReject()  { m.mu.Lock(); m.streamRejected++; m.mu.Unlock() }
func (m *metrics) trackRetired()  { m.mu.Lock(); m.tracksRetired++; m.mu.Unlock() }

func (m *metrics) done(lat time.Duration, ok bool) {
	sec := lat.Seconds()
	m.each(func(m *metrics) {
		if ok {
			m.completed++
		} else {
			m.failed++
		}
		m.lat.record(lat)
		m.latSum += sec
		if sec > m.latMax {
			m.latMax = sec
		}
	})
}

// batchStart marks a batch execution beginning. Together with batch (the
// end mark) it maintains busySeconds as the exact union of overlapping
// worker spans — time with at least one batch in flight — via a simple
// active counter, so neither double-counting nor out-of-order completion
// can skew the aggregate-FPS denominator.
func (m *metrics) batchStart() {
	m.each(func(m *metrics) {
		if m.active == 0 {
			m.activeSince = m.clock()
		}
		m.active++
	})
}

// batch records one executed micro-batch ending now.
func (m *metrics) batch(size int) {
	m.each(func(m *metrics) {
		m.batches++
		m.batchImages += size
		m.batchHist[size]++
		m.active--
		if m.active == 0 {
			m.busySeconds += m.clock().Sub(m.activeSince).Seconds()
		}
	})
}

// snapshot assembles a Stats; queueDepth/queueCap/workers/maxBatch come from
// the server since the queue is not the metrics' to inspect.
func (m *metrics) snapshot(queueDepth, queueCap, workers, maxBatch int) Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{
		UptimeSeconds:         m.clock().Sub(m.start).Seconds(),
		Received:              m.received,
		Rejected:              m.rejected,
		Completed:             m.completed,
		Failed:                m.failed,
		CancelledTotal:        m.cancelled,
		DeadlineExceededTotal: m.deadline,
		DegradedTotal:         m.degraded,
		RetriesExhaustedTotal: m.exhausted,
		SessionsTotal:         m.sessionsTotal,
		SessionsEvictedIdle:   m.sessionsIdle,
		StreamFramesTotal:     m.streamFrames,
		StreamFramesDropped:   m.streamDropped,
		StreamFramesRejected:  m.streamRejected,
		StreamTracksRetired:   m.tracksRetired,
		QueueDepth:            queueDepth,
		QueueCap:              queueCap,
		Workers:               workers,
		MaxBatch:              maxBatch,
		Batches:               m.batches,
		BatchHist:             make(map[int]int, len(m.batchHist)),
		LatencyMaxMs:          m.latMax * 1e3,
	}
	for k, v := range m.batchHist {
		s.BatchHist[k] = v
	}
	if m.batches > 0 {
		s.MeanBatchSize = float64(m.batchImages) / float64(m.batches)
	}
	finished := m.completed + m.failed
	if finished > 0 {
		s.LatencyMeanMs = m.latSum / float64(finished) * 1e3
	}
	s.LatencyHist = make(map[int]int)
	for i := range histBuckets {
		if k := m.lat.counts[0][i] + m.lat.counts[1][i]; k > 0 {
			s.LatencyHist[int(bucketUpperUs(i))] = k
		}
	}
	s.setPercentiles()
	s.BusySeconds = m.busySeconds
	if m.active > 0 {
		s.BusySeconds += m.clock().Sub(m.activeSince).Seconds() // open span
	}
	if s.BusySeconds > 0 {
		s.AggregateFPS = float64(m.batchImages) / s.BusySeconds
	}
	return s
}

// The latency histogram's buckets are log-linear over whole microseconds,
// as in HdrHistogram: below 16 µs each microsecond is a bucket, and from
// 16 µs up each power of two splits into histSub buckets, so a bucket is at
// most 1/16 = 6.25 % of its lower bound wide. The ends clamp: under 1 µs
// counts as 0 µs, and the last bucket holds everything from 2^26 µs (~67 s).
const (
	histSub     = 16
	histMaxUs   = 1<<26 - 1
	histBuckets = 368 // bucketOf(histMaxUs) + 1
)

// bucketOf returns the bucket of a latency of us microseconds: its top
// five significant bits.
func bucketOf(us int64) int {
	us = min(max(us, 0), histMaxUs)
	e := max(bits.Len64(uint64(us))-5, 0)
	return e*histSub + int(us>>e)
}

// bucketUpperUs is bucket i's exclusive upper bound in µs, the value a
// quantile in the bucket reports: above its samples by at most its width.
func bucketUpperUs(i int) int64 {
	e := max(i/histSub-1, 0)
	return int64(i-e*histSub+1) << e
}

// latencyHist is a window of latencies as bucket counts in two halves.
// Samples go into the current half; once it holds half of them, the other
// half is cleared and takes over. Quantiles read both halves, so they cover
// the last half to 2·half samples. Nothing allocates; callers serialise.
type latencyHist struct {
	half   int
	counts [2][histBuckets]int
	n      [2]int
	cur    int
}

func (h *latencyHist) record(d time.Duration) {
	if h.n[h.cur] == h.half {
		h.cur ^= 1
		h.counts[h.cur], h.n[h.cur] = [histBuckets]int{}, 0
	}
	h.counts[h.cur][bucketOf(d.Microseconds())]++
	h.n[h.cur]++
}

// quantile returns the upper bound of the bucket holding the nearest-rank
// p-quantile sample (rank round(p·n), clamped to [1, n]); 0 with no samples.
func (h *latencyHist) quantile(p float64) time.Duration {
	n := h.n[0] + h.n[1]
	if n <= 0 {
		return 0
	}
	rank := min(max(int(p*float64(n)+0.5), 1), n)
	for i := range histBuckets {
		if rank -= h.counts[0][i] + h.counts[1][i]; rank <= 0 {
			return time.Duration(bucketUpperUs(i)) * time.Microsecond
		}
	}
	return 0
}

// setPercentiles re-reads LatencyP50Ms and LatencyP99Ms from LatencyHist.
func (s *Stats) setPercentiles() {
	var h latencyHist
	for us, k := range s.LatencyHist {
		h.counts[0][bucketOf(int64(us)-1)] += k
		h.n[0] += k
	}
	s.LatencyP50Ms = float64(h.quantile(0.50)) / 1e6
	s.LatencyP99Ms = float64(h.quantile(0.99)) / 1e6
}
