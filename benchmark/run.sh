#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with
# the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh -workload fib-bulk -seed 1 -seconds 15 -trace 0
#
# Everything the Go toolchain writes (build cache, temporary files,
# the binary) goes under .bench_build in the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -d "$root/benchmark" ]]; then
	echo "run.sh: run from the repository root (no go.mod or benchmark/ here)" >&2
	exit 2
fi
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go -C benchmark build -o "$out/treecached-bench.tmp" .
mv "$out/treecached-bench.tmp" "$out/treecached-bench"
exec "$out/treecached-bench" "$@"
