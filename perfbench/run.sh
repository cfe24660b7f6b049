#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload load_sweep --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/ in
# the current directory: the Go build cache, the binary, the live daemons'
# journals and the span files of traced runs.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
