#!/usr/bin/env bash
# Builds the avdb benchmark from source and runs it with the given
# arguments.  Run from the repository root:
#
#   bash perfbench/run.sh --workload vod-cohort --seed 1 --seconds 50 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the current
# directory (Go build cache, binary, traced-run outputs).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
