#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload wrr-fattree --seed 7 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, temp
# files, telemetry) stays under .bench_build at the root of the tree.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
