#!/bin/sh
# bench-trajectory: regenerate the benchmark trajectory point and compare it
# against the newest checked-in BENCH_<n>.json. An allocs/op or B/op
# regression in any benchmark — or a benchmark that disappeared — fails;
# ns/op deltas are reported but never gate (CI timing is too noisy).
# BenchmarkNdavetRepo's allocations are reported only: it analyses the
# live tree, which grows with every change. BenchmarkNdavetCorpus, the
# same analysis over a frozen corpus, is gated.
set -eu

cd "$(dirname "$0")/.."

BASE=""
best=-1
for f in BENCH_*.json; do
    [ -f "$f" ] || continue
    n=${f#BENCH_}
    n=${n%.json}
    case "$n" in *[!0-9]*) continue ;; esac
    if [ "$n" -gt "$best" ]; then
        best=$n
        BASE=$f
    fi
done
if [ -z "$BASE" ]; then
    echo "bench-trajectory: no checked-in BENCH_<n>.json baseline" >&2
    exit 1
fi

TMP=$(mktemp)
trap 'rm -f "$TMP"' EXIT

echo "bench-trajectory: baseline $BASE" >&2
BENCH_INDEX=$((best + 1)) BENCH_NOTE="ci candidate" sh scripts/bench_json.sh "$TMP"
go run ./cmd/benchjson -compare "$BASE" "$TMP"
