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
# simulator micro-benchmarks (bench_test.go). Each runs -benchtime=1x
# three times (-count=3); benchjson records allocs/op and B/op as the
# maximum over the three and ns/op as the median. Allocation counts of the
# parallel and pooled benchmarks move by a few between runs (with the
# number of GC cycles that empty sync.Pools), so one low single-shot
# reading as the baseline would fail the next honest run of the gate.
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
trap 'rm -f "$TMP"' EXIT

go test -run='^$' -bench=. -benchmem -benchtime=1x -count=3 . >"$TMP"

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
