package cluster

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"repro/internal/faults"
)

// shardHealth is the slice of a shard's /healthz document the prober
// reads: liveness plus the self-reported identity labels (internal/serve
// stamps shard_id/addr when the process was started with one).
type shardHealth struct {
	Status  string `json:"status"`
	ShardID string `json:"shard_id"`
}

// healthLoop actively probes every shard's /healthz each HealthInterval.
// Probes run concurrently (one slow shard must not delay the others'
// verdicts) and complement the passive forward-error path: passive marks
// catch a dead shard within FailThreshold requests, active probes catch it
// within FailThreshold intervals even with zero traffic — and active
// probes are the ONLY re-admission path, so a flapping shard must prove a
// full successful round trip before traffic returns.
func (p *Proxy) healthLoop() {
	defer p.wg.Done()
	t := time.NewTicker(p.cfg.HealthInterval)
	defer t.Stop()
	p.probeAll() // immediate first pass: don't wait an interval to learn labels
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.probeAll()
		}
	}
}

func (p *Proxy) probeAll() {
	var wg sync.WaitGroup
	for _, s := range p.shards {
		wg.Add(1)
		go func(s *shardState) {
			defer wg.Done()
			p.probe(s)
		}(s)
	}
	wg.Wait()
}

// probe issues one health check against a shard, gated by its breaker
// (an open breaker suppresses probes until the cooldown elapses; the
// first probe after it is the half-open recovery trial). Any transport
// error, non-200 status or non-ok body counts as a probe failure; a clean
// response closes the breaker and refreshes the learned shard_id. The
// cluster.probe#<addr> fault site fails the probe before any network I/O
// — armed together with cluster.forward it simulates a shard dead to both
// planes.
func (p *Proxy) probe(s *shardState) {
	if !s.br.AllowProbe() {
		return
	}
	if err := faults.Fire("cluster.probe", s.addr); err != nil {
		s.br.RecordProbe(false)
		return
	}
	timeout := p.cfg.HealthInterval
	if timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	req, err := http.NewRequest(http.MethodGet, "http://"+s.addr+"/healthz", nil)
	if err != nil {
		s.br.RecordProbe(false)
		return
	}
	client := &http.Client{Transport: p.client.Transport, Timeout: timeout}
	resp, err := client.Do(req)
	if err != nil {
		s.br.RecordProbe(false)
		return
	}
	defer resp.Body.Close()
	var h shardHealth
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&h) != nil || h.Status != "ok" {
		s.br.RecordProbe(false)
		return
	}
	s.setLabel(h.ShardID)
	s.br.RecordProbe(true)
}
