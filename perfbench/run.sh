#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload batch-churn --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build and module caches, temporary files,
# the binary) goes under .bench_build/ in the working directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
