#!/bin/sh
# Builds the benchmark from this checkout's sources and then becomes it.
# A built binary, not `go run`: go run's child outlives a killed parent,
# exec leaves exactly one process and nothing to wait for. Everything
# written (build cache, binary, spans) stays under .bench_build/ in the
# checkout. Without the repo around it (no go.mod) the build fails and
# the script exits non-zero without printing a result.
set -eu
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false \
	go build -o "$build/pcf-benchmark" ./benchmark
exec "$build/pcf-benchmark" "$@"
