#!/bin/sh
# fuzz-smoke: run the differential soundness fuzzer over a pinned seed
# range under a coarse wall-clock budget. Run by `make fuzz-smoke` and the
# CI fuzz-smoke job.
#
# The seed range is pinned — ndalint expands (seed, n) into the seeds
# seed..seed+n-1 and the program generator is deterministic per seed — so
# a CI failure replays locally with the same command, or one seed at a
# time with `go run ./cmd/ndalint -fuzz 1 -seed <k>`. The budget only
# guards against a hang or a catastrophic slowdown; the full-depth sweep
# is the diffuzz package test's job.
#
# It then runs the store's native fuzz target, FuzzOpen, for a fixed
# 10 s inside the same budget: arbitrary bytes as an entry file must
# never panic Open, be served without a valid header and CRC, or cost
# the valid entry next to them. A crasher lands in
# internal/store/testdata/fuzz/FuzzOpen/, where `go test` replays it.
set -eu

cd "$(dirname "$0")/.."

SEED=${FUZZ_SMOKE_SEED:-1}
N=${FUZZ_SMOKE_N:-500}
BUDGET=${FUZZ_SMOKE_BUDGET:-300}

start=$(date +%s)
go run ./cmd/ndalint -fuzz "$N" -seed "$SEED"
go test -run '^$' -fuzz '^FuzzOpen$' -fuzztime 10s ./internal/store
elapsed=$(( $(date +%s) - start ))
echo "fuzz-smoke: ${elapsed}s (budget ${BUDGET}s)"
[ "$elapsed" -le "$BUDGET" ] || {
	echo "fuzz-smoke: exceeded ${BUDGET}s budget" >&2
	exit 1
}
