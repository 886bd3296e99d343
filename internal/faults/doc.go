// Package faults is the fault-injection substrate behind the chaos test
// suite: a tiny registry of named injection sites compiled into the
// production binaries but inert (one atomic load per site) until armed.
//
// Production code declares WHERE faults can happen by calling
// Fire("site", key) at the interesting seams — the proxy's shard client
// ("cluster.forward", "cluster.probe", keyed by shard address), the serving
// admission queue ("serve.queue", keyed by model), the batcher
// ("serve.batch", keyed by model) and the engine's batch executor
// ("engine.execute"). Tests declare WHAT happens there by arming a spec —
// via Arm, or for cmd/dronet-serve and cmd/dronet-proxy the DRONET_FAULTS
// environment variable (inherited by spawned shard processes):
//
//	site[#key]=kind[:arg][,site[#key]=kind[:arg]...]
//
// with kinds slow:<duration> (injected latency), error[:<rate>]
// (ErrInjected, deterministically every 1/rate-th hit), stall (block until
// Disarm) and reset-conn (ErrConnReset). A keyed entry targets one shard or
// one model; a bare site targets all of them.
//
// The registry is immutable once armed and swapped atomically, so the data
// plane never locks; Disarm releases every goroutine a stall (or slow)
// fault is holding, which is what lets a chaos test end its outage
// deterministically and watch the system recover.
package faults
