package cluster

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"repro/internal/serve"
)

// ShardMetrics is one shard's block in the fleet /metrics document: the
// proxy's forwarding counters plus the shard's own scraped metrics report
// (nil when the shard was unreachable at scrape time).
type ShardMetrics struct {
	ShardID        string               `json:"shard_id"`
	Addr           string               `json:"addr"`
	Alive          bool                 `json:"alive"`
	Breaker        BreakerSnapshot      `json:"breaker"`
	ForwardedTotal uint64               `json:"forwarded_total"`
	ShedTotal      uint64               `json:"shed_total"`
	ErrorsTotal    uint64               `json:"errors_total"`
	Metrics        *serve.MetricsReport `json:"metrics,omitempty"`
}

// FleetReport is the proxy's /metrics document: the fleet rollup flattened
// at the top level and one labelled block per shard — the same
// aggregate-plus-blocks shape a routed server uses for its models, so a
// scraper that understands one understands the other. The proxy's own
// counters ride alongside under distinct names.
type FleetReport struct {
	serve.Stats
	Shards map[string]ShardMetrics `json:"shards"`

	LiveShards  int `json:"live_shards"`
	TotalShards int `json:"total_shards"`

	// ProxyReceivedTotal counts data-plane requests the proxy accepted,
	// ProxyNoShardTotal its 503s for want of any live shard, and
	// ProxyFailoversTotal forwards retried on another shard after a
	// transport error.
	ProxyReceivedTotal  uint64 `json:"proxy_received_total"`
	ProxyNoShardTotal   uint64 `json:"proxy_no_shard_total"`
	ProxyFailoversTotal uint64 `json:"proxy_failovers_total"`

	// ProxyDeadlineExceededTotal counts 504s issued by the proxy itself
	// (deadline expired before or during a forward);
	// ProxyRetryExhaustedTotal its 503s for an empty retry budget; and
	// ProxyRetryBudgetTokens the budget's current balance (a gauge).
	ProxyDeadlineExceededTotal uint64  `json:"proxy_deadline_exceeded_total"`
	ProxyRetryExhaustedTotal   uint64  `json:"proxy_retry_exhausted_total"`
	ProxyRetryBudgetTokens     float64 `json:"proxy_retry_budget_tokens"`

	// ProxyStreamSessions is the live relayed-session gauge;
	// ProxyStreamsTotal counts every /stream open seen (including
	// refusals) and ProxyStreamResumesTotal the sessions re-homed to
	// another shard by failover.
	ProxyStreamSessions     int64  `json:"proxy_stream_sessions"`
	ProxyStreamsTotal       uint64 `json:"proxy_streams_total"`
	ProxyStreamResumesTotal uint64 `json:"proxy_stream_resumes_total"`
}

// FleetReport scrapes every live shard's /metrics concurrently and returns
// the assembled fleet document. Unreachable shards contribute their proxy-
// side counters but no metrics block (and count toward the failure
// streak like any other missed interaction).
func (p *Proxy) FleetReport() FleetReport {
	rep := FleetReport{
		Shards:                     make(map[string]ShardMetrics, len(p.shards)),
		TotalShards:                len(p.shards),
		ProxyReceivedTotal:         p.received.Load(),
		ProxyNoShardTotal:          p.noShard.Load(),
		ProxyFailoversTotal:        p.failovers.Load(),
		ProxyDeadlineExceededTotal: p.deadlineExceeded.Load(),
		ProxyRetryExhaustedTotal:   p.retryExhausted.Load(),
		ProxyRetryBudgetTokens:     p.retry.Tokens(),
		ProxyStreamSessions:        p.streamSessions.Load(),
		ProxyStreamsTotal:          p.streamsTotal.Load(),
		ProxyStreamResumesTotal:    p.streamResumes.Load(),
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for addr, s := range p.shards {
		wg.Add(1)
		go func(addr string, s *shardState) {
			defer wg.Done()
			br := s.br.snapshot()
			sm := ShardMetrics{
				ShardID:        s.label(),
				Addr:           addr,
				Alive:          br.State == "closed",
				Breaker:        br,
				ForwardedTotal: s.forwarded.Load(),
				ShedTotal:      s.shed.Load(),
				ErrorsTotal:    s.errors.Load(),
			}
			if sm.Alive {
				sm.Metrics = p.scrape(s)
			}
			mu.Lock()
			if sm.Alive {
				rep.LiveShards++
			}
			if sm.Metrics != nil {
				rep.Stats.Merge(sm.Metrics.Stats)
			}
			rep.Shards[addr] = sm
			mu.Unlock()
		}(addr, s)
	}
	wg.Wait()
	return rep
}

// scrape fetches one shard's /metrics (2s cap — a metrics stall must not
// wedge the fleet document).
func (p *Proxy) scrape(s *shardState) *serve.MetricsReport {
	client := &http.Client{Transport: p.client.Transport, Timeout: 2 * time.Second}
	resp, err := client.Get("http://" + s.addr + "/metrics")
	if err != nil {
		s.br.RecordData(false)
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var m serve.MetricsReport
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil
	}
	return &m
}

// handleMetrics serves GET /metrics: the fleet report assembled on demand.
func (p *Proxy) handleMetrics(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, p.FleetReport())
}
