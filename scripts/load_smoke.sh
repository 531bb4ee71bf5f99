#!/bin/sh
# load-smoke: black-box check of the multi-tenant serving path, run by
# `make load-smoke` and the CI load-smoke job.
#
# Asserts, over plain HTTP against real ndaserve processes:
#   1. byte identity across schedulers: the same sweep answered by an
#      untenanted (FIFO) server and a tenanted (fair-share) server is
#      byte-for-byte identical — scheduling decides when, never what,
#   2. authentication: the tenanted server 401s keyless submissions and
#      keyless /v1/cell requests,
#   3. warm-path SLO: a greedy + light tenant mix against the warm cache
#      holds p99 under the SLO and the light tenant completes work
#      (ndaload exit 1 on violation gates this),
#   4. contention phase: long-tail + cancel mixes under SSE observation
#      run without errors and both tenants appear in /metrics,
#   5. SIGTERM drains the tenanted server cleanly.
set -eu

cd "$(dirname "$0")/.."

ADDR_FIFO=127.0.0.1:18093
ADDR_FAIR=127.0.0.1:18094
BASE_FIFO=http://$ADDR_FIFO
BASE_FAIR=http://$ADDR_FAIR
WARM_P99=${LOAD_SMOKE_WARM_P99:-10ms}
TMP=$(mktemp -d)
FIFO_PID=
FAIR_PID=

cleanup() {
    [ -n "$FIFO_PID" ] && kill "$FIFO_PID" 2>/dev/null || true
    [ -n "$FAIR_PID" ] && kill "$FAIR_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
    echo "load-smoke: FAIL: $*" >&2
    for log in fifo.log fair.log; do
        [ -f "$TMP/$log" ] && sed "s/^/load-smoke:   $log: /" "$TMP/$log" >&2
    done
    exit 1
}

go build -o "$TMP/ndaserve" ./cmd/ndaserve
go build -o "$TMP/ndaload" ./cmd/ndaload

"$TMP/ndaserve" -addr "$ADDR_FIFO" -drain-timeout 30s >"$TMP/fifo.log" 2>&1 &
FIFO_PID=$!
"$TMP/ndaserve" -addr "$ADDR_FAIR" -drain-timeout 30s \
    -tenants 'greedy:smoke-key-g:3,light:smoke-key-l:1' >"$TMP/fair.log" 2>&1 &
FAIR_PID=$!

waitup() { # $1 base url, $2 pid
    i=0
    until curl -fsS "$1/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        [ $i -ge 100 ] && fail "server $1 did not come up"
        kill -0 "$2" 2>/dev/null || fail "server $1 exited early"
        sleep 0.1
    done
}
waitup "$BASE_FIFO" "$FIFO_PID"
waitup "$BASE_FAIR" "$FAIR_PID"

# 1. FIFO vs fair-share byte identity on the same sweep.
REQ='{"workloads":["exchange2"],"policies":["OoO"],"sampling":{"quick":true,"warm_insts":2000,"measure_insts":2000,"skip_insts":1000,"intervals":3}}'
curl -fsS -X POST -d "$REQ" "$BASE_FIFO/v1/sweep?wait=1" >"$TMP/fifo.json" || fail "FIFO sweep failed"
curl -fsS -X POST -H 'X-API-Key: smoke-key-g' -d "$REQ" "$BASE_FAIR/v1/sweep?wait=1" >"$TMP/fair.json" \
    || fail "fair-share sweep failed"
cmp -s "$TMP/fifo.json" "$TMP/fair.json" || fail "fair-share result differs from FIFO result"
echo "load-smoke: FIFO and fair-share results byte-identical"

# 2. Keyless submissions are refused by the tenanted server.
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST -d "$REQ" "$BASE_FAIR/v1/sweep")
[ "$CODE" = "401" ] || fail "keyless submission answered $CODE, want 401"
echo "load-smoke: keyless submission refused (401)"
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST -d '{"kind":"gadget","program":"meltdown"}' "$BASE_FAIR/v1/cell")
[ "$CODE" = "401" ] || fail "keyless /v1/cell answered $CODE, want 401"
echo "load-smoke: keyless cell refused (401)"

# 3. Warm-path SLO under multi-tenant contention: the sweep above warmed
# the hot mix's baseline cells; ndaload re-warms the rest, then a greedy
# and a light tenant hammer the cached sweep. Gates: warm p99 under the
# SLO, the light tenant completes work, fairness stays above floor.
"$TMP/ndaload" -target "$BASE_FAIR" \
    -load 'greedy:smoke-key-g:2:hot:0:3,light:smoke-key-l:1:hot:0:1' \
    -duration 3s -slo-warm-p99 "$WARM_P99" -min-tenant-completed 5 -min-jain 0.3 \
    || fail "warm-path SLO run failed (p99 over $WARM_P99, starved tenant, or unfair share)"
echo "load-smoke: warm p99 within $WARM_P99, light tenant served"

# 4. Contention phase: long-tail simulation plus a cancellation stream,
# observed over SSE. Ungated on latency (fresh cells simulate); asserts
# clean completion and per-tenant accounting on /metrics.
"$TMP/ndaload" -target "$BASE_FAIR" \
    -load 'greedy:smoke-key-g:2:longtail,light:smoke-key-l:1:cancel' \
    -duration 3s -stream sse -min-tenant-completed 1 \
    || fail "contention phase failed"
curl -fsS "$BASE_FAIR/metrics" >"$TMP/metrics.txt" || fail "metrics fetch failed"
for series in 'nda_tenant_dispatched_total{tenant="greedy"}' 'nda_tenant_dispatched_total{tenant="light"}' \
    'nda_jobs_cancelled_total'; do
    grep -qF "$series" "$TMP/metrics.txt" || fail "metrics missing $series"
done
echo "load-smoke: contention phase ok, per-tenant metrics present"

# 5. Drain both servers.
for pid in $FIFO_PID $FAIR_PID; do
    kill -TERM "$pid"
    wait "$pid" || fail "server (pid $pid) exited non-zero on SIGTERM"
done
FIFO_PID=
FAIR_PID=
grep -q "drained cleanly" "$TMP/fair.log" || fail "tenanted server did not drain cleanly"
echo "load-smoke: PASS"
