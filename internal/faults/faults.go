package faults

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Injection outcomes call sites translate into their own failure modes: the
// shard client treats both as transport errors; the serving layers map
// ErrInjected to an inference/admission failure.
var (
	// ErrInjected is the error an "error"-kind fault returns.
	ErrInjected = errors.New("faults: injected error")
	// ErrConnReset is the error a "reset-conn"-kind fault returns; call
	// sites holding a real connection should close it on sight.
	ErrConnReset = errors.New("faults: injected connection reset")
)

// fault is one armed injection at one site.
type fault struct {
	kind  string        // "slow", "error", "stall", "reset-conn"
	d     time.Duration // slow: injected delay
	every uint64        // error: fire on every Nth hit (<=1 means always)
	hits  atomic.Uint64
}

// Registry is one immutable set of armed faults, keyed by "site" or
// "site#key". It is published with a single atomic store, so the data-plane
// Fire calls never take a lock; Disarm closes done, releasing every
// goroutine parked in a stall (or a long slow) fault.
type Registry struct {
	sites map[string]*fault
	done  chan struct{}
}

var active atomic.Pointer[Registry]

// stalled counts the goroutines parked in a stall fault.
var stalled atomic.Int64

// Stalled reports how many goroutines a stall fault holds now.
func Stalled() int { return int(stalled.Load()) }

// Enabled reports whether any fault registry is armed. Call sites do not
// need to check it before Fire — a disarmed Fire is a single atomic load —
// but tests use it to assert arming state.
func Enabled() bool { return active.Load() != nil }

// Arm parses a fault spec and publishes it, replacing (and releasing) any
// previously armed registry. The grammar is a comma-separated list of
//
//	site[#key]=kind[:arg]
//
// where kind is one of
//
//	slow:<duration>   sleep the given duration, then proceed
//	error[:<rate>]    return ErrInjected at the given rate (default 1.0;
//	                  deterministic: rate 0.5 fires every 2nd hit)
//	stall             block until Disarm
//	reset-conn        return ErrConnReset
//
// e.g. "cluster.forward#127.0.0.1:4001=slow:300ms,serve.batch#high=stall".
// A keyed entry fires only for that key at its site; a bare site entry
// fires for every key.
func Arm(spec string) error {
	r, err := parse(spec)
	if err != nil {
		return err
	}
	if old := active.Swap(r); old != nil {
		close(old.done)
	}
	return nil
}

// Disarm withdraws the armed registry and releases every stalled goroutine.
// Safe to call when nothing is armed.
func Disarm() {
	if old := active.Swap(nil); old != nil {
		close(old.done)
	}
}

// Fire triggers the fault armed at site (exact "site#key" match first, then
// the bare site). With nothing armed it is a single atomic load returning
// nil — the production-path cost of carrying injection sites.
func Fire(site, key string) error {
	r := active.Load()
	if r == nil {
		return nil
	}
	if key != "" {
		if f, ok := r.sites[site+"#"+key]; ok {
			return f.fire(r)
		}
	}
	if f, ok := r.sites[site]; ok {
		return f.fire(r)
	}
	return nil
}

func (f *fault) fire(r *Registry) error {
	switch f.kind {
	case "slow":
		// Disarm releases sleepers early so a test teardown never waits out
		// a long injected delay.
		t := time.NewTimer(f.d)
		select {
		case <-t.C:
		case <-r.done:
			t.Stop()
		}
		return nil
	case "stall":
		stalled.Add(1)
		<-r.done
		stalled.Add(-1)
		return nil
	case "error":
		if f.every <= 1 {
			return ErrInjected
		}
		if f.hits.Add(1)%f.every == 1 {
			return ErrInjected
		}
		return nil
	case "reset-conn":
		return ErrConnReset
	}
	return nil
}

func parse(spec string) (*Registry, error) {
	r := &Registry{sites: make(map[string]*fault), done: make(chan struct{})}
	for _, raw := range strings.Split(spec, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			return nil, fmt.Errorf("faults: empty entry in spec %q", spec)
		}
		site, rhs, ok := strings.Cut(raw, "=")
		site = strings.TrimSpace(site)
		if !ok || site == "" || rhs == "" {
			return nil, fmt.Errorf("faults: entry %q: want site[#key]=kind[:arg]", raw)
		}
		if _, dup := r.sites[site]; dup {
			return nil, fmt.Errorf("faults: duplicate site %q", site)
		}
		kind, arg, _ := strings.Cut(rhs, ":")
		f := &fault{kind: kind}
		switch kind {
		case "slow":
			d, err := time.ParseDuration(arg)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("faults: entry %q: bad duration %q", raw, arg)
			}
			f.d = d
		case "error":
			f.every = 1
			if arg != "" {
				rate, err := strconv.ParseFloat(arg, 64)
				if err != nil || !(rate > 0) || rate > 1 {
					return nil, fmt.Errorf("faults: entry %q: bad rate %q (want (0,1])", raw, arg)
				}
				if rate < 1 {
					f.every = uint64(1.0/rate + 0.5)
				}
			}
		case "stall", "reset-conn":
			if arg != "" {
				return nil, fmt.Errorf("faults: entry %q: %s takes no argument", raw, kind)
			}
		default:
			return nil, fmt.Errorf("faults: entry %q: unknown kind %q (want slow, error, stall or reset-conn)", raw, kind)
		}
		r.sites[site] = f
	}
	return r, nil
}

// init arms faults from the DRONET_FAULTS environment variable, so spawned
// test processes (the chaos suite's shard helpers) inherit an injection
// plan without a flag on every binary. A malformed value is reported and
// ignored — a typo'd chaos knob must not take the process down.
func init() {
	if v := os.Getenv("DRONET_FAULTS"); v != "" {
		if err := Arm(v); err != nil {
			fmt.Fprintf(os.Stderr, "DRONET_FAULTS ignored: %v\n", err)
		}
	}
}
