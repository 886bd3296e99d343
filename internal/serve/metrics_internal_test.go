package serve

import (
	"reflect"
	"testing"
	"time"
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
}
