#!/usr/bin/env bash
# Builds the benchmark and cmd/marsit-node from the checkout it is run
# in, then runs one workload:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build writes (Go's cache and temp files included) stays
# under .bench_build/ in the checkout. Fails without printing a result
# where there is no source to build.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

start=$(date +%s%N)
go build -o "$build/bin/" ./benchmark ./cmd/marsit-node
echo "# build: $(( ($(date +%s%N) - start) / 1000000 )) ms (not part of setup_s)" >&2

exec "$build/bin/benchmark" -node-bin "$build/bin/marsit-node" "$@"
