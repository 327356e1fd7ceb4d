#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument passes through, e.g.
#   bash perfbench/run.sh --workload daemon-hot-cold --seed 1 --seconds 15 --trace 0
# All build and run state stays under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" --dir "$build/perfbench-run" "$@"
