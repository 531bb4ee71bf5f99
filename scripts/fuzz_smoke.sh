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
# It then runs the native fuzz targets for a fixed 10 s each inside the
# same budget:
#   - store.FuzzOpen: arbitrary bytes as an entry file must never panic
#     Open, be served without a valid header and CRC, or cost the valid
#     entry next to them;
#   - serve.FuzzCellRequest: arbitrary request bodies must never panic
#     the cell and sweep decoders, nor validate into unbounded work;
#   - asm.FuzzAssemble: arbitrary source must never panic the assembler,
#     and assemble -> disassemble -> assemble must reproduce the program
#     and its loaded memory image, disassembling to the same text again.
# A crasher lands in the package's testdata/fuzz/<target>/, where
# `go test` replays it.
set -eu

cd "$(dirname "$0")/.."

SEED=${FUZZ_SMOKE_SEED:-1}
N=${FUZZ_SMOKE_N:-500}
BUDGET=${FUZZ_SMOKE_BUDGET:-300}

start=$(date +%s)
go run ./cmd/ndalint -fuzz "$N" -seed "$SEED"
go test -run '^$' -fuzz '^FuzzOpen$' -fuzztime 10s ./internal/store
go test -run '^$' -fuzz '^FuzzCellRequest$' -fuzztime 10s ./internal/serve
go test -run '^$' -fuzz '^FuzzAssemble$' -fuzztime 10s ./internal/asm
elapsed=$(( $(date +%s) - start ))
echo "fuzz-smoke: ${elapsed}s (budget ${BUDGET}s)"
[ "$elapsed" -le "$BUDGET" ] || {
	echo "fuzz-smoke: exceeded ${BUDGET}s budget" >&2
	exit 1
}
