package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/detect"
	"repro/internal/serve"
)

// setups is how many times a run boots the fleet: setup_s is their median,
// since one boot of tens of milliseconds is mostly scheduler noise. The last
// boot serves the measured phases.
const setups = 5

// maxLateP95Ms is the generator lateness past which a run carries a warning:
// the box stalled, and since every request is timed from the instant it was
// due, the paced latencies hold that stall. Noise, not a wrong answer: the run
// still counts and still exits 0.
const maxLateP95Ms = 5

// runConfig is one invocation's settings; the metadata of every result file.
type runConfig struct {
	root    string
	binDir  string
	outDir  string
	seed    uint64
	seconds float64 // measured time: warm-up + closed + paced (+ replay when tracing)
	trace   bool
	conns   int
}

// phases splits the measured seconds 1:5:10 into warm-up, closed and paced
// phase; a traced run gives half its time to the fleet and half to the
// in-process replay.
func (c runConfig) phases() (warm, closed, paced, replay time.Duration) {
	total := c.seconds
	if c.trace {
		total /= 2
		replay = time.Duration(total * float64(time.Second))
	}
	unit := time.Duration(total / 16 * float64(time.Second))
	return unit, 5 * unit, 10 * unit, replay
}

// phaseStats is one phase of samples checked against the oracle.
type phaseStats struct {
	Name      string  `json:"name"`
	WallS     float64 `json:"wall_s"`
	Sent      int     `json:"sent"`
	OK        int     `json:"ok"`
	Transport int     `json:"transport_errors"`
	BadStatus int     `json:"bad_status"`
	Wrong     int     `json:"wrong_detections"`
	Unstable  int     `json:"unstable_detections"`
	OverLimit int     `json:"over_limit"`

	latMs   []float64   // answered-200 latencies due → done, ascending
	okDone  []time.Time // when each correct answer arrived
	lateMs  []float64   // sent − due, ascending
	matches int         // oracle-agreement accumulators over answered frames
	boxes   int
}

// pieces is how many consecutive pieces the closed phase is cut into.
// Throughput and CPU per image are each the median over the pieces, so a stall
// of the shared box spoils one piece and not the run.
const pieces = 10

// checker judges answers: exact against the fp32 serial oracle where the
// serving model is fp32, and byte-identical across repeats of a frame for
// every model, whatever batch each repeat landed in.
type checker struct {
	w     *workload
	in    *inputs
	first map[int][]serve.DetectionJSON
}

func (c *checker) check(name string, samples []sample, wall time.Duration) phaseStats {
	st := phaseStats{Name: name, WallS: wall.Seconds(), Sent: len(samples)}
	sort.Slice(samples, func(i, j int) bool { return samples[i].due.Before(samples[j].due) })
	for _, s := range samples {
		f := &c.in.frames[s.frame]
		st.lateMs = append(st.lateMs, s.sent.Sub(s.due).Seconds()*1e3)
		lat := s.done.Sub(s.due).Seconds() * 1e3
		switch {
		case s.status == 0:
			st.Transport++
			continue
		case s.status != http.StatusOK:
			st.BadStatus++
			continue
		}
		st.latMs = append(st.latMs, lat)
		// DetectResponse and the session's result message share these fields.
		var ans struct {
			Detections []serve.DetectionJSON `json:"detections"`
			Model      string                `json:"model"`
		}
		if json.Unmarshal(s.body, &ans) != nil {
			st.Wrong++
			continue
		}
		st.matches += detect.MatchCount(unwire(f.want), unwire(ans.Detections), agreementIoU)
		st.boxes += len(f.want) + len(ans.Detections)
		m := c.w.models[f.route]
		first, seen := c.first[s.frame]
		if !seen {
			c.first[s.frame] = ans.Detections
		}
		switch {
		case m.route != "" && ans.Model != m.route:
			st.Wrong++
		case m.precision == "fp32" && !slices.Equal(ans.Detections, f.want):
			st.Wrong++
		case seen && !slices.Equal(ans.Detections, first):
			st.Unstable++
		case lat > c.w.limitMs:
			st.OverLimit++
		default:
			st.OK++
			st.okDone = append(st.okDone, s.done)
		}
	}
	sort.Float64s(st.latMs)
	sort.Float64s(st.lateMs)
	return st
}

// closedRates cuts the closed phase at the CPU samples and returns the median
// piece's correct answers per wall second and server CPU milliseconds per
// correct answer.
func closedRates(okDone []time.Time, cpu []usage) (throughputIPS, cpuMsPerImage float64) {
	var ips, ms []float64
	for k := 1; k < len(cpu); k++ {
		from, to := cpu[k-1], cpu[k]
		n := 0
		for _, at := range okDone {
			if !at.Before(from.at) && at.Before(to.at) {
				n++
			}
		}
		ips = append(ips, float64(n)/to.at.Sub(from.at).Seconds())
		if n > 0 {
			ms = append(ms, (to.cpuS()-from.cpuS())*1e3/float64(n))
		}
	}
	return median(ips), median(ms)
}

// snapshot is the fleet seen from outside at a phase boundary.
type snapshot struct {
	usage  usage
	scrape scrape
}

func takeSnapshot(f *fleet) (snapshot, error) {
	sc, err := f.metrics()
	return snapshot{usage: f.usage(), scrape: sc}, err
}

// result is what one run of one workload produced: the result file.
type result struct {
	Meta     metadata           `json:"meta"`
	Correct  bool               `json:"correct"`
	Problems []string           `json:"problems,omitempty"` // wrong outputs: the run is not correct
	Warnings []string           `json:"warnings,omitempty"` // a disturbed measurement: reported, never fatal
	Phases   []phaseStats       `json:"phases"`
	SetupS   []float64          `json:"setup_s_each"`
	Metrics  map[string]float64 `json:"metrics"`
}

// metadata are the settings two result files must share to be comparable,
// plus what identifies the run.
type metadata struct {
	Workload  string  `json:"workload"`
	Commit    string  `json:"commit"`
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     bool    `json:"trace"`
	NProc     int     `json:"nproc"`
	Conns     int     `json:"conns"`
	GoVersion string  `json:"go_version"`
	Kernel    string  `json:"gemm_kernel"`
	RateIPS   float64 `json:"rate_ips"`
	LimitMs   float64 `json:"limit_ms"`
	Started   string  `json:"started"`
}

// runWorkload measures one workload end to end: inputs and oracle, the
// repeated set-up, warm-up, the closed and paced phases, and for a traced run
// the probes and the in-process replay.
func runWorkload(cfg runConfig, w *workload) (res *result, err error) {
	res = &result{
		Meta: metadata{
			Workload: w.name, Commit: gitCommit(cfg.root), Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
			NProc: runtime.NumCPU(), Conns: cfg.conns, GoVersion: runtime.Version(),
			RateIPS: w.rateIPS, LimitMs: w.limitMs, Started: time.Now().UTC().Format(time.RFC3339),
		},
		Metrics: map[string]float64{},
	}
	cameras := w.cameras
	if w.codecs[0] == codecStream {
		cameras = cfg.conns
	}
	in, err := makeInputs(w, cfg.seed, cameras)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	if err := fillOracle(w, in); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	chk := &checker{w: w, in: in, first: map[int][]serve.DetectionJSON{}}
	logPath := filepath.Join(cfg.outDir, w.name+"-server.log")
	_ = os.Remove(logPath)

	// Set-up, several times: spawn → listening → first correct answer on the
	// data path.
	var fl *fleet
	var drv driver
	stopFleet := func() error {
		if drv != nil {
			drv.close()
			drv = nil
		}
		if fl == nil {
			return nil
		}
		stopErr := fl.stop()
		fl = nil
		return stopErr
	}
	defer func() { err = errors.Join(err, stopFleet()) }() // drained and reaped on every error path too
	answered := 0                                          // 200s the measured fleet gave the client, for the rollup check
	for i := 0; i < setups; i++ {
		if err := stopFleet(); err != nil {
			return nil, err
		}
		start := time.Now()
		if fl, err = startFleet(cfg.binDir, w, logPath); err != nil {
			return nil, err
		}
		if drv, err = newDriver(w, fl.addr, in, cfg.conns); err != nil {
			return nil, err
		}
		first := chk.check("setup", []sample{drv.one(0)}, 0)
		res.SetupS = append(res.SetupS, time.Since(start).Seconds())
		if first.OK+first.OverLimit != 1 {
			return nil, fmt.Errorf("set-up %d: first request was not answered correctly: %+v", i, first)
		}
		answered = 1
	}

	warm, closedDur, pacedDur, replayDur := cfg.phases()
	for _, s := range drv.closed(warm) {
		if s.status == http.StatusOK {
			answered++
		}
	}
	snapA, err := takeSnapshot(fl)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	cpuCh := make(chan []usage)
	go func() { cpuCh <- fl.sampleUsage(closedDur/pieces, pieces+1) }()
	closedSamples := drv.closed(closedDur)
	closedWall := time.Since(t)
	cpu := <-cpuCh
	snapB, err := takeSnapshot(fl)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	pacedSamples := drv.paced(pacedDur, w.rateIPS)
	pacedWall := time.Since(t)
	snapC, err := takeSnapshot(fl)
	if err != nil {
		return nil, err
	}
	closed := chk.check("closed", closedSamples, closedWall)
	paced := chk.check("paced", pacedSamples, pacedWall)
	res.Phases = []phaseStats{closed, paced}
	answered += len(closed.latMs) + len(paced.latMs)

	m := res.Metrics
	attempted := closed.Sent + paced.Sent
	m["setup_s"] = median(res.SetupS)
	m["throughput_ips"], m["cpu_ms_per_image"] = closedRates(closed.okDone, cpu)
	m["latency_p50_ms"] = percentile(paced.latMs, 0.50)
	m["ok_share"] = float64(closed.OK+paced.OK) / float64(max(attempted, 1))
	m["oracle_agreement"] = 1
	if boxes := closed.boxes + paced.boxes; boxes > 0 {
		m["oracle_agreement"] = 2 * float64(closed.matches+paced.matches) / float64(boxes)
	}

	m["client.sent"] = float64(attempted)
	m["client.ok"] = float64(closed.OK + paced.OK)
	m["client.over_limit"] = float64(closed.OverLimit + paced.OverLimit) // correct, but slower than limit_ms
	m["client.failed"] = float64(attempted) - m["client.ok"] - m["client.over_limit"]
	m["client.late_p95_ms"] = percentile(paced.lateMs, 0.95)
	m["client.latency_p95_ms"] = percentile(paced.latMs, 0.95)
	m["client.latency_p99_ms"] = percentile(paced.latMs, 0.99)
	m["client.encode_ms"] = in.encodeMs

	var probes probeStats
	if cfg.trace {
		if probes, err = runProbes(w, fl, drv); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		answered += probes.answered
	}

	// The fleet is idle now, so its counters are settled.
	final, err := takeSnapshot(fl)
	if err != nil {
		return nil, err
	}
	h, err := fl.health(w)
	if err != nil {
		return nil, err
	}
	res.Meta.Kernel = h.kernel
	m["peak_rss_mb"] = final.usage.peakRSSMB
	blackBox(m, snapA, snapB, snapC, final, closed.WallS, answered)
	m["engine.workspace_mb"] = h.workspaceMB
	m["engine.weight_mb"] = h.weightMB
	m["serve.sessions_open"] = float64(h.sessions)

	if err := stopFleet(); err != nil {
		return nil, err
	}

	if cfg.trace {
		tr, err := replay(w, in, replayDur, m)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		m["transport.ms"] = probes.directP50Ms - m["serve.handler_ms"]
		m["cluster.hop_ms"] = probes.hopMs
		if err := tr.write(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
	}

	problem := func(format string, args ...any) {
		res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
	}
	warning := func(format string, args ...any) {
		res.Warnings = append(res.Warnings, fmt.Sprintf(format, args...))
	}
	if m["serve.accounting_ok"] != 1 {
		problem("serve.accounting_ok = 0: sum of batch_size*count != completed+failed")
	}
	if late := m["client.late_p95_ms"]; late > maxLateP95Ms {
		warning("client.late_p95_ms = %.2f > %d: the box stalled and the generator fell behind its schedule", late, maxLateP95Ms)
	}
	if !cfg.trace && !supports(len(paced.latMs), 0.95) {
		problem("paced phase answered %d requests: fewer than %d beyond p95", len(paced.latMs), minBeyond)
	}
	if n := closed.Wrong + closed.Unstable + paced.Wrong + paced.Unstable; n > 0 {
		problem("%d answers differ from the oracle or from an earlier answer to the same frame", n)
	}
	if cfg.trace && m["trace.overhead_share"] >= 0.05 {
		warning("trace.overhead_share = %.3f >= 0.05", m["trace.overhead_share"])
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// blackBox fills the per-layer metrics read from outside the servers:
// /metrics deltas and /proc. Batch shape and busy share are taken over the
// closed phase (a→b), where the servers are saturated; the refusal counters
// over both measured phases (a→c); latency percentiles are the servers' own
// sliding window at the end.
func blackBox(m map[string]float64, a, b, c, final snapshot, closedWallS float64, answered int) {
	batches := b.scrape.Batches - a.scrape.Batches
	images := 0
	for size, n := range b.scrape.BatchHist {
		images += size * (n - a.scrape.BatchHist[size])
	}
	m["serve.batches"] = float64(batches)
	m["serve.mean_batch_size"] = float64(images) / float64(max(batches, 1))
	serving := max(len(final.scrape.Shards), 1)
	m["serve.busy_share"] = (b.scrape.BusySeconds - a.scrape.BusySeconds) / (closedWallS * float64(serving))
	m["serve.server_latency_p50_ms"] = final.scrape.LatencyP50Ms
	m["serve.server_latency_p99_ms"] = final.scrape.LatencyP99Ms
	m["serve.rejected"] = float64(c.scrape.Rejected - a.scrape.Rejected)
	m["serve.deadline_exceeded"] = float64(c.scrape.DeadlineExceededTotal - a.scrape.DeadlineExceededTotal)
	m["serve.degraded"] = float64(c.scrape.DegradedTotal - a.scrape.DegradedTotal)
	m["serve.borrows"] = float64(c.scrape.BorrowsTotal - a.scrape.BorrowsTotal)

	executed := uint64(0)
	for size, n := range final.scrape.BatchHist {
		executed += uint64(size) * uint64(n)
	}
	m["serve.accounting_ok"] = 0
	if executed == final.scrape.Completed+final.scrape.Failed {
		m["serve.accounting_ok"] = 1
	}

	m["proc.sys_share"] = (b.usage.sysS - a.usage.sysS) / max(b.usage.cpuS()-a.usage.cpuS(), 1e-9)

	m["cluster.balance_ratio"], m["cluster.rollup_over_client"] = 0, 0
	m["cluster.retries"], m["cluster.ejections"] = 0, 0
	if len(final.scrape.Shards) > 0 {
		lo, hi := ^uint64(0), uint64(0)
		for _, sh := range final.scrape.Shards {
			if sh.Metrics != nil {
				lo, hi = min(lo, sh.Metrics.Completed), max(hi, sh.Metrics.Completed)
			}
			m["cluster.ejections"] += float64(sh.Breaker.OpenedTotal)
		}
		m["cluster.balance_ratio"] = float64(hi) / float64(max(lo, 1))
		m["cluster.rollup_over_client"] = float64(final.scrape.Completed) / float64(max(answered, 1))
		m["cluster.retries"] = float64(final.scrape.ProxyFailoversTotal)
	}
}

// gitCommit names the measured commit when the checkout is a git repository
// (the driver's is not).
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if sha, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	return ref
}
