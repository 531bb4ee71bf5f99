#!/bin/sh
# golden-identity: regenerate the four checked-in result goldens and fail
# on any byte of drift.
#
#   testdata/golden/sweep_quick.json              ndabench -quick -experiments fig7 -json
#   testdata/golden/sweep_quick_checkpoints.json  ndabench -quick -checkpoints -experiments fig7 -json
#   testdata/golden/attack_matrix.json            ndattack -matrix -json
#   testdata/golden/fuzz_census.json              ndalint -fuzz 500 -seed 1 -json
#
# The two sweeps pin both sampling modes: continuous simulation, and
# checkpoint sampling (functional fast-forward, then one warm-up and one
# measured window per checkpoint). The fuzz census pins the sanitized
# timing runs of the differential checker: 500 generated programs, each
# under every policy with two planted secrets.
#
# Each golden is regenerated at two worker counts (1 and GOLDEN_WORKERS,
# default 2) and cmp'd against the checked-in file, so the gate catches both
# simulator-output drift and any scheduling-order leak in the parallel sweep
# or matrix engines. Refresh the goldens deliberately with:
#
#   go run ./cmd/ndabench -quick -experiments fig7 -json testdata/golden/sweep_quick.json
#   go run ./cmd/ndabench -quick -checkpoints -experiments fig7 -json testdata/golden/sweep_quick_checkpoints.json
#   go run ./cmd/ndattack -matrix -json testdata/golden/attack_matrix.json
#   go run ./cmd/ndalint -fuzz 500 -seed 1 -json > testdata/golden/fuzz_census.json
set -eu

cd "$(dirname "$0")/.."

WORKERS=${GOLDEN_WORKERS:-2}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail=0
check() { # check <golden-file> <fresh-file> <label>
    if cmp -s "$1" "$2"; then
        echo "golden-identity: $3: byte-identical"
    else
        echo "golden-identity: $3: DRIFT from $1" >&2
        cmp "$1" "$2" >&2 || true
        fail=1
    fi
}

for w in 1 "$WORKERS"; do
    go run ./cmd/ndabench -quick -experiments fig7 -workers "$w" \
        -json "$TMP/sweep_$w.json" >/dev/null
    check testdata/golden/sweep_quick.json "$TMP/sweep_$w.json" "quick sweep (workers=$w)"

    go run ./cmd/ndabench -quick -checkpoints -experiments fig7 -workers "$w" \
        -json "$TMP/sweep_ckpt_$w.json" >/dev/null
    check testdata/golden/sweep_quick_checkpoints.json "$TMP/sweep_ckpt_$w.json" \
        "quick checkpointed sweep (workers=$w)"

    go run ./cmd/ndattack -matrix -workers "$w" \
        -json "$TMP/matrix_$w.json" >/dev/null
    check testdata/golden/attack_matrix.json "$TMP/matrix_$w.json" "attack matrix (workers=$w)"

    go run ./cmd/ndalint -fuzz 500 -seed 1 -workers "$w" -json >"$TMP/census_$w.json"
    check testdata/golden/fuzz_census.json "$TMP/census_$w.json" "fuzz census (workers=$w)"
done

exit "$fail"
