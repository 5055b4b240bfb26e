#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root:
#
#   bash perfbench/run.sh --workload mixed --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary, data directories, run records and span
# files all stay under .bench_build in the current directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local

# The benchmark module replaces the service module with the directory
# above it, so outside a full checkout the build fails and nothing runs.
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --out "$build/perfbench-runs" "$@"
