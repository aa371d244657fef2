#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it, passing
# every argument through:
#
#   bash perfbench/run.sh --workload paper-static --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# benchmark's scratch files (checkpoints, span files) all stay under
# .bench_build in that directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOENV=off GOPROXY=off GOFLAGS=-buildvcs=false
go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" --work "$out" "$@"
