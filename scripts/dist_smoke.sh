#!/bin/sh
# dist-smoke: black-box check of the distributed sweep fleet, run by
# `make dist-smoke` and the CI dist-smoke job.
#
# Starts a coordinator over two local ndaserve workers, then asserts:
#   1. a sweep sharded across the fleet — with one worker SIGKILLed while
#      its cells are still in flight — completes anyway,
#   2. the merged JSON is byte-identical to a golden single-process run,
#   3. the fleet metrics show the recovery: retries happened and the dead
#      worker was evicted from the rotation.
set -eu

W1=127.0.0.1:18191
W2=127.0.0.1:18192
COORD=127.0.0.1:18193
LOCAL=127.0.0.1:18194
TMP=$(mktemp -d)
PIDS=""

cleanup() {
    for p in $PIDS; do kill "$p" 2>/dev/null || true; done
    rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
    echo "dist-smoke: FAIL: $*" >&2
    for f in "$TMP"/*.log; do
        [ -f "$f" ] && sed "s|^|dist-smoke:   $(basename "$f" .log): |" "$f" >&2
    done
    exit 1
}

wait_up() {
    i=0
    until curl -fsS "http://$1/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        [ $i -ge 100 ] && fail "server on $1 did not come up"
        sleep 0.1
    done
}

go build -o "$TMP/ndaserve" ./cmd/ndaserve

# All 23 workloads under OoO plus the in-order bound: 46 cells, enough to
# guarantee the kill below lands with cells still outstanding. The sampling
# windows are sized so the sweep takes seconds, not one 0.1 s progress poll.
REQ='{"policies":["OoO"],"sampling":{"quick":true,"warm_insts":20000,"measure_insts":20000,"skip_insts":10000,"intervals":3}}'

# Golden: the same sweep on a plain single-process server.
"$TMP/ndaserve" -addr "$LOCAL" -drain-timeout 30s >"$TMP/local.log" 2>&1 &
LOCAL_PID=$!
PIDS="$PIDS $LOCAL_PID"
wait_up "$LOCAL"
curl -fsS -X POST -d "$REQ" "http://$LOCAL/v1/sweep?wait=1" >"$TMP/golden.json" \
    || fail "golden single-process sweep failed"
kill -TERM "$LOCAL_PID" && wait "$LOCAL_PID" || fail "golden server did not drain"
echo "dist-smoke: golden single-process sweep ok"

# The fleet: two workers and a coordinator in front of them.
"$TMP/ndaserve" -addr "$W1" >"$TMP/worker1.log" 2>&1 &
W1_PID=$!
"$TMP/ndaserve" -addr "$W2" >"$TMP/worker2.log" 2>&1 &
W2_PID=$!
PIDS="$PIDS $W1_PID $W2_PID"
wait_up "$W1"
wait_up "$W2"
"$TMP/ndaserve" -addr "$COORD" -workers "http://$W1,http://$W2" \
    -cell-retries 6 -cell-timeout 60s >"$TMP/coord.log" 2>&1 &
COORD_PID=$!
PIDS="$PIDS $COORD_PID"
wait_up "$COORD"

# Submit asynchronously so the job is observable while it runs.
JOB=$(curl -fsS -X POST -d "$REQ" "http://$COORD/v1/sweep" \
    | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])') \
    || fail "sweep submission failed"

status() { curl -fsS "http://$COORD/v1/jobs/$JOB"; }
field() { python3 -c "import json,sys; print(json.load(sys.stdin).get('$1', 0))"; }

# Let the fleet make some progress, then SIGKILL worker 2 with its share
# of the sweep still in flight.
i=0
while :; do
    DONE=$(status | field done_cells)
    [ "$DONE" -ge 3 ] && break
    i=$((i + 1))
    [ $i -ge 300 ] && fail "sweep never progressed past $DONE cells"
    sleep 0.1
done
kill -KILL "$W2_PID"
echo "dist-smoke: killed worker 2 at $DONE/46 cells"

i=0
while :; do
    STATE=$(status | field state)
    case "$STATE" in
    done) break ;;
    failed | cancelled) fail "job reached state $STATE after the kill" ;;
    esac
    i=$((i + 1))
    [ $i -ge 600 ] && fail "job stuck in state $STATE"
    sleep 0.1
done

curl -fsS "http://$COORD/v1/jobs/$JOB/result" >"$TMP/merged.json" || fail "result fetch failed"
cmp -s "$TMP/golden.json" "$TMP/merged.json" \
    || fail "fleet-merged sweep is not byte-identical to the single-process run"
echo "dist-smoke: merged sweep byte-identical to single-process run"

# The recovery must be visible on /metrics: retries happened, and the
# dead worker leaves the rotation (possibly a probe or two after the job).
metric_sum() { curl -fsS "http://$COORD/metrics" | awk -v m="$1" 'index($1, m"{")==1 {s+=$2} END {print s+0}'; }
[ "$(metric_sum nda_dist_retried_total)" -gt 0 ] || fail "kill caused no retries"
i=0
until [ "$(metric_sum nda_dist_evicted_total)" -gt 0 ]; do
    i=$((i + 1))
    [ $i -ge 100 ] && fail "dead worker was never evicted"
    sleep 0.1
done
echo "dist-smoke: retries and eviction visible on /metrics"

kill -TERM "$COORD_PID" && wait "$COORD_PID" || fail "coordinator did not drain cleanly"
kill -TERM "$W1_PID" && wait "$W1_PID" || fail "worker 1 did not drain cleanly"
echo "dist-smoke: PASS"
