#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Every argument is
# passed through to the benchmark binary:
#
#   bash bench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh -workload all -sets 2 -seconds 10 -out DIR
#   bash bench/run.sh -workload all -sets 1 -trace 1 -out DIR
#   bash bench/run.sh -compare DIR_A DIR_B
#
# Everything the build and the runs write stays under .bench_build/ at the
# repository root: the Go build cache, the binary, temp files and
# trace files. The last line a single run prints is its JSON result.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
    TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
    GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# Two simulation workers and two client connections on a 2-CPU machine.
export GOMAXPROCS=2

(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" -root "$root" "$@"
