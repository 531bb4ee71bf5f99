#!/bin/sh
# bench-json: run the performance benchmarks and emit one machine-readable
# trajectory point (the BENCH_<n>.json format, see cmd/benchjson).
#
#   sh scripts/bench_json.sh                # print to stdout, next free index
#   sh scripts/bench_json.sh out.json       # write to a file
#   BENCH_INDEX=3 sh scripts/bench_json.sh  # force the trajectory index
#   BENCH_NOTE="post-refactor" ...          # stamp a note
#
# The bench set is the root package's Fig/Table benchmarks plus the
# simulator micro-benchmarks (bench_test.go), and internal/ooo's
# BenchmarkRunInsts, the run loop alone, whose 0 allocs/op the gate holds.
# Each test binary is built once. Every benchmark then runs in a process
# of its own at -cpu 1, -benchtime=1x three times (-count=3); benchjson
# records allocs/op and B/op as the maximum over the three and ns/op as the
# median. That is the gated pass: its allocation counts depend on neither
# which sweep worker meets which workload (one worker at -cpu 1) nor what
# an earlier benchmark left in the process (pools, lazily built tables).
# Counts still move by a few between runs with the number of GC cycles
# that empty sync.Pools, so one low single-shot reading as the baseline
# would fail the next honest run of the gate. A second pass runs every
# benchmark once at -cpu 2, in one process per binary; its lines carry the
# -2 suffix, and benchjson records them as information only. A failure in
# that pass drops its lines and is reported, not fatal: at -cpu 2 a
# runtime allocation on another goroutine now and then lands inside
# BenchmarkRunInsts's own process-wide malloc window, which fails it.
#
# Two serving-path points ride along via ndaload against an in-process
# server: the warm hot mix with a saturation search (BenchmarkLoadHot +
# BenchmarkLoadHotSaturation) and a two-tenant contention mix
# (BenchmarkLoadMultiTenant, whose jain column tracks fair-share quality).
# Their latency/throughput columns are informational like ns/op; they
# carry no alloc columns, so the regression gate treats them as presence
# checks only.
set -eu

cd "$(dirname "$0")/.."

OUT=${1:-}
INDEX=${BENCH_INDEX:-}
NOTE=${BENCH_NOTE:-}

if [ -z "$INDEX" ]; then
    # Next free index after the highest checked-in BENCH_<n>.json.
    INDEX=0
    for f in BENCH_*.json; do
        [ -f "$f" ] || continue
        n=${f#BENCH_}
        n=${n%.json}
        case "$n" in *[!0-9]*) continue ;; esac
        [ "$n" -ge "$INDEX" ] && INDEX=$((n + 1))
    done
fi

TMP=$(mktemp)
BIN=$(mktemp -d)
trap 'rm -rf "$TMP" "$BIN"' EXIT

go test -c -o "$BIN/root.test" .
go test -c -o "$BIN/ooo.test" ./internal/ooo

# bench <package dir> <binary> <pattern>: the gated pass, one process per
# benchmark the pattern selects, then the -cpu 2 pass over all of them. A
# test binary runs in its package's directory, as go test runs it.
bench() {
    for name in $(cd "$1" && "$2" -test.list "$3"); do
        (cd "$1" && "$2" -test.run='^$' -test.bench="^$name\$" -test.benchmem \
            -test.benchtime=1x -test.count=3 -test.cpu=1) >>"$TMP"
    done
    (cd "$1" && "$2" -test.run='^$' -test.bench="$3" -test.benchmem \
        -test.benchtime=1x -test.count=1 -test.cpu=2) >>"$TMP" ||
        echo "bench-json: the -cpu 2 pass of $2 failed; it is information only" >&2
}
bench . "$BIN/root.test" '^Benchmark'
bench internal/ooo "$BIN/ooo.test" '^BenchmarkRunInsts$'

LOAD_DUR=${BENCH_LOAD_DURATION:-2s}
go run ./cmd/ndaload -inproc -duration "$LOAD_DUR" -load 'local::2:hot' \
    -saturation -saturation-max-workers 8 -bench Hot >>"$TMP"
go run ./cmd/ndaload -inproc -tenants 'greedy:bench-kg:3,light:bench-kl:1' \
    -load 'greedy:bench-kg:2:hot:0:3,light:bench-kl:1:hot:0:1' \
    -duration "$LOAD_DUR" -bench MultiTenant >>"$TMP"

if [ -n "$OUT" ]; then
    go run ./cmd/benchjson -index "$INDEX" -note "$NOTE" <"$TMP" >"$OUT"
    echo "bench-json: wrote $OUT (index $INDEX)" >&2
else
    go run ./cmd/benchjson -index "$INDEX" -note "$NOTE" <"$TMP"
fi
