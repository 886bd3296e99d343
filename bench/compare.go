package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Verdicts of one (end-to-end metric, workload) pair.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved" // the runs of one side spread wider than the bound
)

// loadSet reads one side of a comparison: a directory of result files or a
// comma-separated list of them, grouped by workload.
func loadSet(arg string) (map[string][]*result, error) {
	var files []string
	if st, err := os.Stat(arg); err == nil && st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(arg, "result-*-trace0-*.json")); err != nil {
			return nil, err
		}
	} else {
		files = strings.Split(arg, ",")
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no result files", arg)
	}
	set := map[string][]*result{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Meta.Trace {
			return nil, fmt.Errorf("%s is a traced run: end-to-end metrics come from untraced runs only", f)
		}
		set[r.Meta.Workload] = append(set[r.Meta.Workload], &r)
	}
	return set, nil
}

// settings are the metadata two runs must share for their numbers to be
// comparable. Commit and seed are what may differ.
func settings(m metadata) string {
	return fmt.Sprintf("seconds=%g nproc=%d conns=%d go=%s kernel=%s rate_ips=%g limit_ms=%g",
		m.Seconds, m.NProc, m.Conns, m.GoVersion, m.Kernel, m.RateIPS, m.LimitMs)
}

// judge compares side b with side a on one metric. Like the driver, it does
// not hold setup_s to the spread rule: set-up is tens of milliseconds of
// process start, its bound is already the widest the contract allows, and
// only a shift of its median counts.
func judge(d metricDef, a, b []float64) (change float64, verdict string) {
	ma, mb := median(a), median(b)
	change = (mb - ma) / ma // positive = improved
	if d.Better == "lower" {
		change = -change
	}
	switch {
	case d.Name != "setup_s" && max(spreadShare(a), spreadShare(b)) > d.Bound:
		verdict = verdictUnresolved
	case change < -d.Bound:
		verdict = verdictWorse
	case change > d.Bound:
		verdict = verdictBetter
	default:
		verdict = verdictSame
	}
	return change, verdict
}

// compareSets prints one row per (end-to-end metric, workload) judged with
// the direction and bound BENCHMARK.json gives the metric, and fails if any
// pair is worse or unresolved.
func compareSets(out io.Writer, spec *benchmarkFile, argA, argB string) error {
	a, err := loadSet(argA)
	if err != nil {
		return err
	}
	b, err := loadSet(argB)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-16s %-18s %12s %22s %3s %12s %22s %3s %8s %6s  %s\n",
		"workload", "metric", "A median", "A quartiles", "n", "B median", "B quartiles", "n", "change", "bound", "verdict")
	bad := 0
	for _, wl := range spec.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		want := settings(ra[0].Meta)
		for _, r := range slices.Concat(ra, rb) {
			if got := settings(r.Meta); got != want {
				return fmt.Errorf("%s: runs with different settings cannot be compared:\n  %s\n  %s", wl.Name, want, got)
			}
		}
		for _, d := range spec.EndToEnd {
			va, vb := values(ra, d.Name), values(rb, d.Name)
			change, verdict := judge(d, va, vb)
			if verdict == verdictWorse || verdict == verdictUnresolved {
				bad++
			}
			qa1, qa3 := quartiles(va)
			qb1, qb3 := quartiles(vb)
			fmt.Fprintf(out, "%-16s %-18s %12.4f %22s %3d %12.4f %22s %3d %+7.1f%% %5.1f%%  %s\n",
				wl.Name, d.Name, median(va), fmt.Sprintf("[%.4f, %.4f]", qa1, qa3), len(va),
				median(vb), fmt.Sprintf("[%.4f, %.4f]", qb1, qb3), len(vb), change*100, d.Bound*100, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d (metric, workload) pair(s) worse or unresolved", bad)
	}
	return nil
}

func values(rs []*result, metric string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[metric]
	}
	return out
}

// spreadReport prints, for the result files of one set, every end-to-end
// metric's median and inter-quartile spread per workload next to its bound:
// the noise study a bound is chosen from.
func spreadReport(out io.Writer, spec *benchmarkFile, arg string) error {
	set, err := loadSet(arg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-16s %-18s %3s %12s %22s %8s %6s\n", "workload", "metric", "n", "median", "quartiles", "spread", "bound")
	for _, wl := range spec.Workloads {
		for _, d := range spec.EndToEnd {
			v := values(set[wl.Name], d.Name)
			q1, q3 := quartiles(v)
			fmt.Fprintf(out, "%-16s %-18s %3d %12.4f %22s %7.2f%% %5.1f%%\n",
				wl.Name, d.Name, len(v), median(v), fmt.Sprintf("[%.4f, %.4f]", q1, q3), spreadShare(v)*100, d.Bound*100)
		}
	}
	return nil
}
