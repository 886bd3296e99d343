package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It has been 100 on every Linux ABI Go runs on.
const clockTick = 100

// fleet is one workload's server processes: the spawned dronet-serve or
// dronet-proxy plus whatever shards the proxy spawned, all in one process
// group of their own so they can be accounted, signalled and checked for
// leaks together, from outside.
type fleet struct {
	cmd    *exec.Cmd
	addr   string
	pgid   int
	procs  []int // the group's processes, listed once it listens: shards are up by then
	waited chan struct{}
}

// startFleet spawns the workload's server and returns once it printed its
// "listening on" line. Server logs append to logPath.
func startFleet(binDir string, w *workload, logPath string) (*fleet, error) {
	args := append([]string{"-addr", "127.0.0.1:0"}, w.args...)
	if w.bin == "dronet-proxy" {
		args = append(args, "-serve-bin", filepath.Join(binDir, "dronet-serve"))
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the children hold their own descriptors
	cmd := exec.Command(filepath.Join(binDir, w.bin), args...)
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	f := &fleet{cmd: cmd, pgid: cmd.Process.Pid, waited: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		// Drain stdout for the life of the process so it never blocks on a
		// full pipe; only then may Wait close the pipe.
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
		_ = cmd.Wait()
		close(f.waited)
	}()
	select {
	case f.addr = <-addrCh:
		f.procs = f.pids()
		return f, nil
	case <-f.waited:
		return nil, fmt.Errorf("%s exited before listening (see %s)", w.bin, logPath)
	case <-time.After(60 * time.Second):
		_ = f.stop()
		return nil, fmt.Errorf("%s never announced its port", w.bin)
	}
}

// stop drains the fleet with SIGTERM, reaps it, and then checks from outside
// that the whole process group is gone. Survivors are killed and reported:
// a leaked child fails the run.
func (f *fleet) stop() error {
	_ = f.cmd.Process.Signal(syscall.SIGTERM)
	var errs []error
	select {
	case <-f.waited:
	case <-time.After(20 * time.Second):
		errs = append(errs, errors.New("server ignored SIGTERM for 20s"))
	}
	if left := f.pids(); len(left) > 0 || len(errs) > 0 {
		_ = syscall.Kill(-f.pgid, syscall.SIGKILL)
		<-f.waited
		if len(left) > 0 {
			errs = append(errs, fmt.Errorf("leaked server processes %v", left))
		}
	}
	return errors.Join(errs...)
}

// procStat is the slice of /proc/<pid>/stat the harness reads.
type procStat struct {
	pgrp         int
	state        byte
	utime, stime uint64 // clock ticks
}

func readProcStat(pid int) (procStat, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procStat{}, err
	}
	// The command name sits in parentheses and may hold spaces: fields are
	// counted from the last ')'.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return procStat{}, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var st procStat
	st.state = fields[0][0]
	st.pgrp, _ = strconv.Atoi(fields[2])
	st.utime, _ = strconv.ParseUint(fields[11], 10, 64)
	st.stime, _ = strconv.ParseUint(fields[12], 10, 64)
	return st, nil
}

// pids lists the live (non-zombie) processes of the fleet's group.
func (f *fleet) pids() []int {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	var out []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if st, err := readProcStat(pid); err == nil && st.pgrp == f.pgid && st.state != 'Z' {
			out = append(out, pid)
		}
	}
	sort.Ints(out)
	return out
}

// usage is the fleet's resource consumption read from /proc.
type usage struct {
	at          time.Time
	userS, sysS float64 // CPU seconds, summed over processes
	peakRSSMB   float64 // VmHWM, summed over processes
}

func (u usage) cpuS() float64 { return u.userS + u.sysS }

func (f *fleet) usage() usage {
	u := usage{at: time.Now()}
	for _, pid := range f.procs {
		st, err := readProcStat(pid)
		if err != nil {
			continue
		}
		u.userS += float64(st.utime) / clockTick
		u.sysS += float64(st.stime) / clockTick
		status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(status), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				u.peakRSSMB += kb / 1024
			}
		}
	}
	return u
}

// sampleUsage reads the fleet's CPU clocks n times, every interval from now.
func (f *fleet) sampleUsage(interval time.Duration, n int) []usage {
	out := make([]usage, 0, n)
	start := time.Now()
	for k := 0; k < n; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * interval)))
		out = append(out, f.usage())
	}
	return out
}

// scrape is what /metrics says: a dronet-serve report, or the proxy's fleet
// report whose top level is the rollup of its shards.
type scrape struct {
	serve.Stats
	Shards              map[string]cluster.ShardMetrics `json:"shards"`
	ProxyFailoversTotal uint64                          `json:"proxy_failovers_total"`
}

var scrapeClient = &http.Client{Timeout: 5 * time.Second}

func getJSON(url string, v any) error {
	resp, err := scrapeClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (f *fleet) metrics() (scrape, error) {
	var s scrape
	err := getJSON("http://"+f.addr+"/metrics", &s)
	return s, err
}

// serveHealth is the slice of a dronet-serve /healthz the harness reads.
type serveHealth struct {
	Kernel         string `json:"kernel"`
	WorkspaceBytes int64  `json:"workspace_bytes"`
	Models         map[string]struct {
		WeightBytes int64 `json:"weight_bytes"`
	} `json:"models"`
	Streaming struct {
		SessionsOpen int `json:"sessions_open"`
	} `json:"streaming"`
}

// serveAddrs returns the dronet-serve processes behind the fleet's front
// address: itself, or the proxy's shards.
func (f *fleet) serveAddrs(w *workload) ([]string, error) {
	if w.bin != "dronet-proxy" {
		return []string{f.addr}, nil
	}
	var h struct {
		Shards map[string]json.RawMessage `json:"shards"`
	}
	if err := getJSON("http://"+f.addr+"/healthz", &h); err != nil {
		return nil, err
	}
	var addrs []string
	for a := range h.Shards {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	return addrs, nil
}

// health is /healthz summed over the fleet's dronet-serve processes.
type health struct {
	kernel                string
	workspaceMB, weightMB float64
	sessions              int
}

func (f *fleet) health(w *workload) (health, error) {
	var sum health
	addrs, err := f.serveAddrs(w)
	if err != nil {
		return sum, err
	}
	for _, a := range addrs {
		var h serveHealth
		if err := getJSON("http://"+a+"/healthz", &h); err != nil {
			return sum, err
		}
		sum.kernel = h.Kernel
		sum.workspaceMB += float64(h.WorkspaceBytes) / 1e6
		for _, m := range h.Models {
			sum.weightMB += float64(m.WeightBytes) / 1e6
		}
		sum.sessions += h.Streaming.SessionsOpen
	}
	return sum, nil
}
