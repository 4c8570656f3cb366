#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it from
# the root of the checkout:
#
#   bash perfbench/run.sh --workload cache-concurrent --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, CSVs, spans and CPU profiles.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" "$@"
