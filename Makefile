# Single source of truth for build/verify commands: CI (.github/workflows/
# ci.yml) and local runs invoke exactly these targets.

GO ?= go

.PHONY: build test race bench-smoke bench-json bench-trajectory golden-identity serve-smoke dist-smoke store-smoke load-smoke fuzz-smoke vet ndavet contract-check lint fmt fmt-check ci

## build: compile every package and command
build:
	$(GO) build ./...

## test: tier-1 test suite
test:
	$(GO) test ./...

## race: full test suite under the race detector (proves the parallel
## sweep engine and attack matrix are race-clean)
race:
	$(GO) test -race ./...

## bench-smoke: run every benchmark exactly once under a coarse wall-clock
## budget — exercises each experiment driver per PR. All benchmarks live in
## the root package; scoping the run there skips compiling bench binaries
## for the other ~30 packages. The budget only guards against a hang or a
## catastrophic slowdown; fine-grained regressions are bench-trajectory's job.
BENCH_SMOKE_BUDGET ?= 600
bench-smoke:
	@start=$$(date +%s); \
	$(GO) test -run='^$$' -bench=. -benchtime=1x . || exit 1; \
	elapsed=$$(( $$(date +%s) - start )); \
	echo "bench-smoke: $${elapsed}s (budget $(BENCH_SMOKE_BUDGET)s)"; \
	[ "$$elapsed" -le "$(BENCH_SMOKE_BUDGET)" ] || { \
		echo "bench-smoke: exceeded $(BENCH_SMOKE_BUDGET)s budget" >&2; exit 1; }

## bench-json: run the benchmarks three times each and emit a BENCH_<n>.json trajectory
## point (next free index; see cmd/benchjson for the format)
bench-json:
	sh scripts/bench_json.sh

## bench-trajectory: regenerate the trajectory point and compare against the
## newest checked-in BENCH_<n>.json — hard-fails on any allocs/op or B/op
## regression; timing deltas are informational
bench-trajectory:
	sh scripts/bench_trajectory.sh

## golden-identity: regenerate the quick sweep and the attack matrix at two
## worker counts and byte-diff each against testdata/golden/
golden-identity:
	sh scripts/golden_identity.sh

## serve-smoke: black-box check of the ndaserve HTTP API — health, a quick
## sweep, byte-identical cache reuse, graceful SIGTERM drain
serve-smoke:
	sh scripts/serve_smoke.sh

## dist-smoke: black-box check of the distributed sweep fleet — a
## coordinator over two local workers, one SIGKILLed mid-sweep, with the
## merged result diffed byte-for-byte against a single-process golden run
dist-smoke:
	sh scripts/dist_smoke.sh

## store-smoke: black-box check of the persistent result store — a 92-cell
## sweep into -store-dir, SIGKILL, restart with -warm-from, and a
## byte-identical zero-simulation replay
store-smoke:
	sh scripts/store_smoke.sh

## load-smoke: black-box check of multi-tenant serving — FIFO vs fair-share
## byte identity on the same sweep, API-key auth, an ndaload warm-path run
## gated on p99/fairness/per-tenant completion, a long-tail + cancel
## contention phase over SSE, and a clean SIGTERM drain
load-smoke:
	sh scripts/load_smoke.sh

## fuzz-smoke: differential soundness fuzzing on a pinned seed range — the
## gadget analyzer's SAFE verdicts cross-checked against dynamic simulation
## on generated programs; any static-SAFE/dynamic-leak disagreement fails
fuzz-smoke:
	sh scripts/fuzz_smoke.sh

## vet: static analysis
vet:
	$(GO) vet ./...

## ndavet: the determinism/layering analyzer over the repo's own source —
## all eight passes — alloclint, ctxlint, detlint, errlint, globlint,
## layerlint, leaklint, locklint (alloclint, ctxlint, leaklint, and
## locklint are interprocedural, over the call graph); fails on any
## finding without a reasoned //ndavet:allow annotation
ndavet:
	$(GO) run ./cmd/ndavet

## contract-check: fail if the layer-contract table in README.md drifts
## from the one generated out of internal/analysis/layers.go
contract-check:
	sh scripts/layer_contract.sh

## lint: vet, the NDA gadget analyzer over every built-in program (fails
## if any static verdict deviates from Table 2 or a workload grows a
## chosen-code gadget), ndavet over the repo's own source, and the
## README layer-contract drift check
lint: vet ndavet contract-check
	$(GO) run ./cmd/ndalint -check

## fmt: rewrite sources with gofmt
fmt:
	gofmt -w .

## fmt-check: fail if any file needs gofmt
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

## ci: everything the CI pipeline runs, in one local command
ci: build test lint fmt-check race bench-smoke bench-trajectory golden-identity serve-smoke dist-smoke store-smoke load-smoke fuzz-smoke
