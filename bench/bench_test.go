package main

import (
	"math"
	"os/exec"
	"regexp"
	"slices"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

func loadSpec(t *testing.T) *benchmarkFile {
	t.Helper()
	spec, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBenchmarkFile holds BENCHMARK.json to the limits of the driver's
// contract and to the harness's own workload table.
func TestBenchmarkFile(t *testing.T) {
	spec := loadSpec(t)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if n := len(spec.Command); n < 1 || n > 32 {
		t.Errorf("command of %d strings, want 1..32", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", spec.RunSeconds)
	}
	for _, p := range spec.Paths {
		if !pathRE.MatchString(p) || p[0] == '/' {
			t.Errorf("bad path %q", p)
		}
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the harness", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why of %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range spec.EndToEnd {
		name(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g, want (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error(`no end-to-end metric "setup_s" with unit "s" and better "lower"`)
	}
	for _, d := range spec.PerLayer {
		name(d.Name)
		if d.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", d.Name)
		}
	}
	for _, d := range slices.Concat(spec.EndToEnd, spec.PerLayer) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
}

// TestPercentileSupport pins the rule that a percentile is reported only with
// at least ten samples beyond it.
func TestPercentileSupport(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{0.5: 50, 0.95: 95, 0.99: 99, 1: 100, 0: 1} {
		if got := percentile(v, p); got != want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", p, got, want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing is not 0")
	}
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{200, 0.95, true}, {199, 0.95, false}, {1000, 0.99, true}, {999, 0.99, false}, {20, 0.5, true}, {19, 0.5, false}, {0, 0.5, false},
	} {
		if got := supports(c.n, c.p); got != c.want {
			t.Errorf("supports(%d, %g) = %v (beyond = %d), want %v", c.n, c.p, got, beyond(c.n, c.p), c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// which the driver judges spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "latency", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "throughput", Better: "higher", Bound: 0.1}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, []float64{10, 10.1, 9.9}, []float64{10.5, 10.4, 10.6}, verdictSame},
		{lower, []float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, verdictWorse},
		{lower, []float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, verdictBetter},
		{higher, []float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, verdictWorse},
		{higher, []float64{10, 14, 6}, []float64{10, 10.1, 9.9}, verdictUnresolved},
	} {
		if _, got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}
}

// TestSmoke runs detect-ingest for under a second per kind of run against
// freshly built servers and holds the metric names the harness emits to the
// ones BENCHMARK.json lists: the same set, both ways.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns the servers")
	}
	spec := loadSpec(t)
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir+"/", "./cmd/dronet-serve", "./cmd/dronet-proxy")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	w, err := findWorkload("detect-ingest")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, trace := range []bool{false, true} {
		cfg := runConfig{root: "..", binDir: dir, outDir: dir, seed: 1, seconds: 0.8, trace: trace, conns: 2}
		res, err := runWorkload(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		want := spec.EndToEnd
		if trace {
			want = spec.PerLayer
		}
		if _, err := report(cfg, res, want); err != nil {
			t.Error(err)
		}
		for _, d := range want {
			listed[d.Name] = true
			if v := res.Metrics[d.Name]; math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("trace=%v: %s = %v", trace, d.Name, v)
			}
		}
		if res.Metrics["client.sent"] < 1 || res.Metrics["client.failed"] != 0 {
			t.Errorf("trace=%v: sent %v, failed %v: %v", trace, res.Metrics["client.sent"], res.Metrics["client.failed"], res.Problems)
		}
		if trace {
			for name := range res.Metrics {
				if !listed[name] {
					t.Errorf("the harness measures %q, which BENCHMARK.json does not list", name)
				}
			}
		}
	}
}
