package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef is one metric of BENCHMARK.json. Bound is the share of the
// parent's median an end-to-end metric may worsen by; per-layer metrics
// carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile is BENCHMARK.json: the harness reads metric names, units,
// directions and bounds from it and keeps none of them in code, so what a
// run prints and what the contract lists cannot drift apart.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// Request codecs: how a camera frame travels to the server.
const (
	codecJSON   = "json"   // POST /detect, planar float array
	codecJPEG   = "jpeg"   // POST /detect/raw
	codecPNG    = "png"    // POST /detect/raw
	codecStream = "stream" // StreamFrame on a GET /stream WebSocket session
)

// modelSpec is one model the workload's server hosts, as the oracle has to
// rebuild it in-process.
type modelSpec struct {
	route     string  // registry route name; empty on a single-model server
	size      int     // network input side
	precision string  // "fp32" or "int8"
	maxAlt    float64 // altitude ceiling of the route; 0 = the overflow route
}

// workload is one traffic mix against one server configuration. rateIPS and
// limitMs are frozen here (BENCHMARK.json admits no extra keys): rateIPS is
// a third of the median closed-phase throughput_ips measured at the commit
// that introduced the benchmark, to two significant figures (see README.md).
type workload struct {
	name    string
	bin     string   // dronet-serve or dronet-proxy
	args    []string // server flags besides -addr
	scale   float64
	models  []modelSpec
	workers int // batch workers per serving process (0 = nproc, the flag default)
	batch   int // -max-batch the serving processes run with

	cameras    int      // logical cameras
	perCamera  int      // distinct frames per camera, cycled
	frameW     int      // camera frame geometry
	frameH     int      //
	codecs     []string // cycled over a camera's frames
	highShare  float64  // share of cameras flying above the low route's ceiling
	moving     bool     // frames of a camera are one panning sequence (tracks stay live)
	cameraKeys bool     // send X-Camera-ID (the proxy's affinity key)

	rateIPS float64
	limitMs float64
}

// workloads is the table the README documents; order is print order.
var workloads = []workload{
	{
		name:  "detect-compute",
		bin:   "dronet-serve",
		args:  []string{"-model", "dronet", "-scale", "1.0", "-size", "256"},
		scale: 1.0, models: []modelSpec{{size: 256, precision: "fp32"}}, batch: 8,
		cameras: 4, perCamera: 12, frameW: 256, frameH: 256, codecs: []string{codecJPEG},
		rateIPS: 19, limitMs: 250,
	},
	{
		name:  "detect-ingest",
		bin:   "dronet-serve",
		args:  []string{"-scale", "0.25", "-size", "96"},
		scale: 0.25, models: []modelSpec{{size: 96, precision: "fp32"}}, batch: 8,
		cameras: 8, perCamera: 8, frameW: 96, frameH: 96, codecs: []string{codecJSON},
		rateIPS: 66, limitMs: 100,
	},
	{
		name:  "routed-mixed",
		bin:   "dronet-serve",
		args:  []string{"-scale", "0.25", "-models", "low=dronet:64:int8:150,high=dronet:96:fp32"},
		scale: 0.25, batch: 8,
		models: []modelSpec{
			{route: "low", size: 64, precision: "int8", maxAlt: 150},
			{route: "high", size: 96, precision: "fp32"},
		},
		cameras: 8, perCamera: 10, frameW: 128, frameH: 96,
		codecs:    []string{codecJSON, codecPNG, codecPNG, codecPNG, codecPNG},
		highShare: 0.5,
		rateIPS:   110, limitMs: 100,
	},
	{
		name:  "sharded",
		bin:   "dronet-proxy",
		args:  []string{"-spawn", "2", "-workers", "1", "-scale", "0.25", "-size", "96"},
		scale: 0.25, models: []modelSpec{{size: 96, precision: "fp32"}}, workers: 1, batch: 4,
		cameras: 12, perCamera: 6, frameW: 96, frameH: 96, codecs: []string{codecJSON},
		cameraKeys: true,
		rateIPS:    53, limitMs: 100,
	},
	{
		name:  "stream",
		bin:   "dronet-serve",
		args:  []string{"-scale", "0.25", "-size", "96"},
		scale: 0.25, models: []modelSpec{{size: 96, precision: "fp32"}}, batch: 8,
		perCamera: 32, frameW: 96, frameH: 96, codecs: []string{codecStream},
		moving:  true, // cameras = conns: one session per connection
		rateIPS: 87, limitMs: 100,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
