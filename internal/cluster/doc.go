// Package cluster is the scale-out tier over internal/serve: a consistent-
// hash proxy that spreads /detect traffic across a fleet of independent
// dronet-serve processes (shards) while keeping the single-process HTTP
// contract intact — clients speak the same API to one address and the
// paper's detector scales horizontally behind it.
//
// The package has four cooperating parts:
//
//   - Ring: a consistent-hash ring with virtual nodes. A request's camera
//     id (?camera= or X-Camera-ID) maps to a stable owning shard, so one
//     camera's frames land on one process — its batcher sees a coherent
//     stream — and membership changes remap only ~1/K of the id space
//     instead of reshuffling everything.
//   - shard client pool: one keep-alive HTTP client fronting every shard
//     with a per-shard bounded in-flight pipe. The bound composes with the
//     shard's own admission queue: the proxy sheds (429) when a shard's
//     pipe is full, the shard sheds when its queue is — two independent
//     backpressure layers, each sized to its own resource.
//   - circuit breakers: every shard carries a closed/open/half-open
//     breaker fed by both planes — active /healthz probes (a consecutive-
//     failure streak opens it) and passive data-plane outcomes (a windowed
//     error rate opens it). An open breaker takes the shard out of rotation
//     and suppresses probes for a cooldown; the first probe after it is the
//     single half-open trial, whose success re-closes the breaker (and
//     resets the error window) and whose failure re-opens it with a fresh
//     cooldown. A dead shard's cameras fail open to the next live owner on
//     the ring; a killed shard costs capacity, never correctness. Breaker
//     state and transition counters ride on /healthz and /metrics.
//   - fleet metrics: the proxy's /metrics scrapes every live shard and
//     publishes per-shard blocks plus a fleet rollup (serve.Stats.Merge
//     folded over the shards) in the same shape as the per-model blocks a
//     routed server exposes, so existing scrapers aggregate a fleet
//     exactly like they aggregate models.
//
// # Deadlines and budgeted retries
//
// The proxy is deadline-aware end to end. A request's budget arrives as
// the X-Dronet-Deadline header (milliseconds) or ?deadline_ms=; the proxy
// pins the wall-clock deadline, forwards with a context bound to it, and
// restamps the DECREMENTED remainder on the hop to the shard, so the
// shard prices admission against the time the client actually has left.
// A budget that expires at the proxy — on arrival, between failover
// attempts, or mid-forward — is a 504 and counts deadline_exceeded_total;
// it never penalizes the shard's breaker (the client ran out of time, the
// shard did nothing wrong) and never triggers a pointless failover.
//
// Every shard hop — a forward, a /stream open, a relayed session's
// failover — is one budgeted ring walk (Proxy.walk): retries draw from a
// token bucket (ProxyConfig.RetryBudget capacity, RetryRefill tokens
// restored per successful forward) and space attempts with exponential
// backoff plus full jitter. When the bucket is dry the proxy answers 503
// with Retry-After instead of amplifying a brown-out with a retry storm.
// Responses carry X-Dronet-Attempts so clients and tests can see how many
// shards a request visited.
//
// cmd/dronet-proxy wires the pieces into a binary (static -shards list or
// -spawn K local shard processes for bench/smoke, started by Spawn, the one
// parser of the "listening on" handshake); examples/serveclient
// -sharded and `make shard-smoke` exercise the whole tier end to end, and
// `make chaos` drives the breaker lifecycle and deadline plumbing against
// injected faults (internal/faults) under the race detector.
package cluster
