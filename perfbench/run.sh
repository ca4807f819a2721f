#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build at the
# checkout root: the Go build cache, the binary, scratch caches and span
# dumps. Nothing is downloaded (GOTOOLCHAIN=local, GOPROXY=off).
set -eu
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
