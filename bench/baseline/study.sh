#!/usr/bin/env bash
# The noise study behind the bounds in BENCHMARK.json: every workload at ten
# seeds, untraced, results kept under bench/baseline/runs/.
#   bash bench/baseline/study.sh [first-seed]
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
first=${1:-1}
rm -f "$root"/bench/out/result-*-trace0-*.json
for seed in $(seq "$first" $((first + 9))); do
	for w in detect-compute detect-ingest routed-mixed sharded stream; do
		bash "$root/bench/run.sh" --workload "$w" --seed "$seed" --trace 0 | tail -n 1
	done
done
rm -rf "$root/bench/baseline/runs"
mkdir -p "$root/bench/baseline/runs"
cp "$root"/bench/out/result-*-trace0-*.json "$root/bench/baseline/runs/"
bash "$root/bench/run.sh" -spread "$root/bench/baseline/runs" | tee "$root/bench/baseline/spread.txt"
