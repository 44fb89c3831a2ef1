#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload city-wave --seed 1 --seconds 25 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, telemetry)
# stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
