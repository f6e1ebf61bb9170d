#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds ./bench from source inside the
# checkout and runs it with the driver's arguments. The binary and Go's
# build cache live under .bench_build/, so nothing is written outside the
# checkout; the first build there compiles the standard library too.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod beside bench/: the benchmark builds the program it measures from this repository's source" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
# The benchmark reports the build's wall time as host.build_s.
export BENCH_BUILD_START="$EPOCHREALTIME"
go build -o "$build/bench" ./bench
export BENCH_BUILD_END="$EPOCHREALTIME"
exec "$build/bench" "$@"
