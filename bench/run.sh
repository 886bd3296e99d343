#!/usr/bin/env bash
# Builds dronet-serve, dronet-proxy and the harness from the checkout this
# script lives in, then runs the harness. Everything the build writes (Go
# build cache included) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
bin="$root/.bench_build/bin"
(cd "$root" && go build -o "$bin/" ./cmd/dronet-serve ./cmd/dronet-proxy)
(cd "$root/bench" && go build -o "$bin/bench" .)
exec "$bin/bench" -root "$root" "$@"
