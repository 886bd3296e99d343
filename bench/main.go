// Command bench is the repository's benchmark: it builds nothing itself
// (run.sh does), spawns the real dronet-serve and dronet-proxy binaries,
// drives them over loopback HTTP and WebSocket the way a fleet of UAV cameras
// would, checks every answer against an in-process serial oracle, and prints
// the metrics BENCHMARK.json names. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	root := flag.String("root", ".", "checkout root: where BENCHMARK.json and .bench_build/bin live")
	name := flag.String("workload", "", "workload to run (default: every workload, one after the other)")
	seed := flag.Uint64("seed", 1, "input seed: the same seed renders the same camera frames")
	seconds := flag.Float64("seconds", 0, "measured seconds per run (default: BENCHMARK.json run_seconds)")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file; 0 = end-to-end metrics")
	compare := flag.Bool("compare", false, "compare two sets of result files: -compare A B, each a directory or a comma-separated list")
	spread := flag.String("spread", "", "print the run-to-run spread of the result files in this directory (or comma-separated list)")
	flag.Parse()
	if err := run(*root, *name, *seed, *seconds, *trace == 1, *compare, *spread, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(root, name string, seed uint64, seconds float64, trace, compare bool, spread string, args []string) error {
	spec, err := loadBenchmarkFile(root)
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two arguments, got %d", len(args))
		}
		return compareSets(os.Stdout, spec, args[0], args[1])
	}
	if spread != "" {
		return spreadReport(os.Stdout, spec, spread)
	}
	if seconds == 0 {
		seconds = float64(spec.RunSeconds)
	}
	cfg := runConfig{
		root: root, binDir: filepath.Join(root, ".bench_build", "bin"), outDir: filepath.Join(root, "bench", "out"),
		seed: seed, seconds: seconds, trace: trace, conns: min(runtime.NumCPU(), 4),
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	todo := workloads
	if name != "" {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		todo = []workload{*w}
	}
	listed := spec.EndToEnd
	if trace {
		listed = spec.PerLayer
	}
	invalid := 0
	for i := range todo {
		res, err := runWorkload(cfg, &todo[i])
		if err != nil {
			return fmt.Errorf("%s: %w", todo[i].name, err)
		}
		line, err := report(cfg, res, listed)
		if err != nil {
			return err
		}
		fmt.Println(line)
		if !res.Correct {
			invalid++
		}
	}
	if invalid > 0 {
		return fmt.Errorf("%d workload run(s) invalid, see the problems above", invalid)
	}
	return nil
}

// report writes the result file, prints one readable row per listed metric,
// and returns the driver's result line: exactly the listed metrics, each with
// the unit BENCHMARK.json gives it.
func report(cfg runConfig, res *result, listed []metricDef) (string, error) {
	file := filepath.Join(cfg.outDir, fmt.Sprintf("result-%s-trace%d-seed%d.json", res.Meta.Workload, b2i(cfg.trace), cfg.seed))
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(file, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct: res.Correct, Attempted: int(res.Metrics["client.sent"]), Failed: int(res.Metrics["client.failed"]),
		Metrics: map[string]value{},
	}
	for _, d := range listed {
		v, ok := res.Metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("BENCHMARK.json lists %q, which the harness did not measure", d.Name)
		}
		out.Metrics[d.Name] = value{v, d.Unit}
		fmt.Printf("%-16s %-30s %14.4f %s\n", res.Meta.Workload, d.Name, v, d.Unit)
	}
	for _, p := range res.Problems {
		fmt.Printf("%-16s PROBLEM %s\n", res.Meta.Workload, p)
	}
	for _, w := range res.Warnings {
		fmt.Printf("%-16s WARNING %s\n", res.Meta.Workload, w)
	}
	fmt.Printf("%-16s result file %s\n", res.Meta.Workload, file)
	line, err := json.Marshal(out)
	return string(line), err
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
