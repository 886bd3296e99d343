package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/faults"
)

// TestBusyUnionOverlappingSpans: overlapping batch executions reported out
// of order must contribute their wall-clock union to busySeconds, not the
// clamped or double-counted sum — the denominator of aggregate FPS. The
// metrics clock is stepped by hand, so every span is exact.
func TestBusyUnionOverlappingSpans(t *testing.T) {
	m := newMetrics()
	now := time.Unix(1_000_000, 0)
	m.now = func() time.Time { return now }
	ms := func(n int) float64 { return (time.Duration(n) * time.Millisecond).Seconds() }

	// Long span A starts, short span B starts and ends inside it, then A
	// ends: the union is A's full 30 ms.
	m.batchStart() // A
	now = now.Add(10 * time.Millisecond)
	m.batchStart() // B
	now = now.Add(10 * time.Millisecond)
	m.batch(1) // B ends first
	now = now.Add(10 * time.Millisecond)
	m.batch(4) // A ends

	s := m.snapshot(0, 1, 1, 4)
	if s.BusySeconds != ms(30) {
		t.Errorf("busy %vs, want the %vs union of the overlapping spans", s.BusySeconds, ms(30))
	}
	if want := 5 / ms(30); s.AggregateFPS != want {
		t.Errorf("aggregate FPS %v, want 5 images over the busy time = %v", s.AggregateFPS, want)
	}
	if s.MeanBatchSize != 2.5 {
		t.Errorf("mean batch %.2f, want 2.5", s.MeanBatchSize)
	}

	// An idle gap must not count; a span still open counts up to now.
	now = now.Add(20 * time.Millisecond)
	if s2 := m.snapshot(0, 1, 1, 4); s2.BusySeconds != s.BusySeconds {
		t.Errorf("idle time leaked into busySeconds: %vs -> %vs", s.BusySeconds, s2.BusySeconds)
	}
	m.batchStart()
	now = now.Add(5 * time.Millisecond)
	if s3, want := m.snapshot(0, 1, 1, 4), ms(30)+ms(5); s3.BusySeconds != want {
		t.Errorf("busy with a span open %vs, want %vs", s3.BusySeconds, want)
	}
}

// TestStatsMergeCoversEveryField is the guard that keeps Stats.Merge from
// forgetting a field again: two snapshots with every numeric field set are
// folded into the zero Stats, and any numeric field still zero afterwards
// is one Merge does not know about. The only exemptions are the labels of a
// single pool, which an aggregate must NOT carry.
func TestStatsMergeCoversEveryField(t *testing.T) {
	labels := map[string]bool{"MaxAltitude": true, "Generation": true}
	fill := func(base int) Stats {
		var s Stats
		v := reflect.ValueOf(&s).Elem()
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Int:
				f.SetInt(int64(base + i))
			case reflect.Uint64:
				f.SetUint(uint64(base + i))
			case reflect.Float64:
				f.SetFloat(float64(base + i))
			case reflect.String:
				f.SetString("x")
			case reflect.Map:
				f.Set(reflect.ValueOf(map[int]int{base: 1}))
			default:
				t.Fatalf("Stats.%s has kind %s: teach this test (and Merge) about it", v.Type().Field(i).Name, f.Kind())
			}
		}
		return s
	}
	var out Stats
	out.Merge(fill(1))
	out.Merge(fill(100))
	v := reflect.ValueOf(out)
	for i := 0; i < v.NumField(); i++ {
		name, f := v.Type().Field(i).Name, v.Field(i)
		if f.Kind() == reflect.String {
			continue
		}
		if labels[name] != f.IsZero() {
			t.Errorf("Stats.%s after Merge = %v: zero=%v, want zero=%v", name, f.Interface(), f.IsZero(), labels[name])
		}
	}
	if out.Model != "" || out.ShardID != "" || out.Addr != "" || out.Precision != "x" {
		t.Errorf("labels after Merge: model %q shard %q addr %q precision %q, want only the precision carried",
			out.Model, out.ShardID, out.Addr, out.Precision)
	}
	if len(out.BatchHist) != 2 {
		t.Errorf("batch_hist %v, want both sides' buckets", out.BatchHist)
	}
	if len(out.LatencyHist) != 2 {
		t.Errorf("latency_hist_us %v, want both sides' buckets", out.LatencyHist)
	}
}

// TestStatsMergeMeanWeightsFailures: the latency mean snapshot reports is
// over completed AND failed requests, so Merge must weight it by both — an
// all-failed shard's mean counts like any other.
func TestStatsMergeMeanWeightsFailures(t *testing.T) {
	var out Stats
	out.Merge(Stats{Failed: 10, LatencyMeanMs: 5})
	out.Merge(Stats{Completed: 10, LatencyMeanMs: 1})
	if out.LatencyMeanMs != 3 {
		t.Errorf("merged mean %v ms, want 3 (10 requests at 5 ms, 10 at 1 ms)", out.LatencyMeanMs)
	}
}

// latencyStream returns n seeded latencies spread log-uniformly over
// 16 µs–60 s, the range in which every bucket is at most 6.25 % wide.
func latencyStream(seed int64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	lo, hi := math.Log(float64(16*time.Microsecond)), math.Log(float64(60*time.Second))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(math.Exp(lo + rng.Float64()*(hi-lo)))
	}
	return out
}

// nearestRank is the exact p-quantile the histogram approximates: the
// sample of rank round(p·n), clamped to [1, n], of the sorted window.
func nearestRank(window []time.Duration, p float64) time.Duration {
	sorted := append([]time.Duration(nil), window...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := min(max(int(p*float64(len(sorted))+0.5), 1), len(sorted))
	return sorted[rank-1]
}

// TestLatencyHistBoundedError: for streams of 1 to past 2·half samples,
// each reported p50/p99 lies in [exact, exact × 1.0625], where exact is
// the nearest-rank sample over the window the histogram covers — every
// sample of the full previous half and the current one. It checks the
// /metrics window (through done and snapshot) and the 64-batch deadline
// yardstick.
func TestLatencyHistBoundedError(t *testing.T) {
	check := func(what string, got, exact time.Duration) {
		t.Helper()
		if got < exact || float64(got) > float64(exact)*1.0625 {
			t.Errorf("%s = %v, exact nearest-rank %v: want within [1, 1.0625]×", what, got, exact)
		}
	}
	ms := func(v float64) time.Duration { return time.Duration(math.Round(v * 1e6)) }
	for _, half := range []int{32, 2048} {
		for seed, n := range []int{1, 2, 3, 7, 31, 32, 33, 64, 65, 100, 2047, 2048, 2049, 4095, 4096, 5000} {
			stream := latencyStream(int64(seed), n)
			window := stream
			if n > half {
				window = stream[n-half-((n-1)%half+1):] // full previous half + current half
			}
			h := latencyHist{half: half}
			for _, d := range stream {
				h.record(d)
			}
			for _, p := range []float64{0.50, 0.99} {
				check(fmt.Sprintf("half %d, n %d: hist p%v", half, n, p*100), h.quantile(p), nearestRank(window, p))
			}
			if half != 2048 {
				continue
			}
			m := newMetrics()
			for _, d := range stream {
				m.done(d, true)
			}
			s := m.snapshot(0, 1, 1, 1)
			check(fmt.Sprintf("n %d: /metrics p50", n), ms(s.LatencyP50Ms), nearestRank(window, 0.50))
			check(fmt.Sprintf("n %d: /metrics p99", n), ms(s.LatencyP99Ms), nearestRank(window, 0.99))
		}
	}
}

// TestStatsMergeLatencyExact: two metrics fed disjoint seeded streams,
// merged, must report exactly the buckets, p50 and p99 of one metrics fed
// both streams — through the JSON wire, as a fronting proxy sees them.
func TestStatsMergeLatencyExact(t *testing.T) {
	a, b, both := newMetrics(), newMetrics(), newMetrics()
	for _, d := range latencyStream(1, 1500) {
		a.done(d, true)
		both.done(d, true)
	}
	for _, d := range latencyStream(2, 2000) {
		b.done(d, false)
		both.done(d, false)
	}
	var merged Stats
	for _, m := range []*metrics{a, b} {
		raw, err := json.Marshal(m.snapshot(0, 1, 1, 1))
		if err != nil {
			t.Fatal(err)
		}
		var s Stats
		if err := json.Unmarshal(raw, &s); err != nil {
			t.Fatal(err)
		}
		merged.Merge(s)
	}
	want := both.snapshot(0, 1, 1, 1)
	if !reflect.DeepEqual(merged.LatencyHist, want.LatencyHist) {
		t.Errorf("merged buckets differ from one process fed both streams:\n got %v\nwant %v", merged.LatencyHist, want.LatencyHist)
	}
	if merged.LatencyP50Ms != want.LatencyP50Ms || merged.LatencyP99Ms != want.LatencyP99Ms {
		t.Errorf("merged p50/p99 %v/%v ms, want %v/%v", merged.LatencyP50Ms, merged.LatencyP99Ms, want.LatencyP50Ms, want.LatencyP99Ms)
	}

	// A snapshot without a histogram (an older shard) adds no samples.
	old := want
	old.LatencyHist = nil
	merged.Merge(old)
	if merged.LatencyP50Ms != want.LatencyP50Ms || merged.LatencyP99Ms != want.LatencyP99Ms {
		t.Errorf("a histogram-less side moved p50/p99 to %v/%v ms", merged.LatencyP50Ms, merged.LatencyP99Ms)
	}
}

// TestLatencyRecordAndReadAllocFree: recording a request and reading the
// deadline yardstick are on the request path and allocate nothing.
func TestLatencyRecordAndReadAllocFree(t *testing.T) {
	m := newMetrics()
	if n := testing.AllocsPerRun(1000, func() { m.done(3*time.Millisecond, true) }); n != 0 {
		t.Errorf("metrics.done allocates %v times per call", n)
	}
	h := &hosted{svc: latencyHist{half: 32}}
	for _, d := range latencyStream(3, 50) {
		h.svc.record(d)
	}
	if n := testing.AllocsPerRun(1000, func() { h.serviceMedian() }); n != 0 {
		t.Errorf("serviceMedian allocates %v times per call", n)
	}
}

// TestServiceMedianFollowsLoadShift: the deadline yardstick must follow a
// load shift within one window. 64 batches at ≥1 ms, then 64 at ≥10 ms
// (an injected kernel slowdown), and the median must read at least 10 ms.
func TestServiceMedianFollowsLoadShift(t *testing.T) {
	srv := newTestServer(t)
	defer srv.Close()
	defer faults.Disarm()
	h := srv.table.Load().byName["only"]
	for _, phase := range []time.Duration{time.Millisecond, 10 * time.Millisecond} {
		if err := faults.Arm("engine.execute=slow:" + phase.String()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			if _, _, err := srv.detect(context.Background(), h, testImage(), 0, time.Time{}); err != nil {
				t.Fatal(err)
			}
		}
		if got := h.serviceMedian(); got < phase {
			t.Fatalf("after 64 batches at ≥%v the service median reads %v", phase, got)
		}
	}
}
