#!/usr/bin/env bash
# Shard smoke: boot the real binaries — two quarryd shards each
# holding one hash partition of the fact table, the gather router in
# front of them, and an unsharded single-node control over the full
# data — then demand byte-identical /api/olap answers from the gather
# and the control across a query mix covering the whole merge algebra
# (float SUM/AVG, COUNT, string MIN/MAX, filters, roll-ups), through
# a lockstep republish. Then kill one shard and confirm the
# documented failure mode: a whole-query 502 naming the dead shard,
# never a partial answer.
#
# CI runs this with race-enabled binaries (GOFLAGS=-race); locally
# plain `./ci/shard_smoke.sh` works too. Only bash + curl + go.
set -euo pipefail

SF="${SF:-3}"
CONTROL_PORT=19080
SHARD0_PORT=19081
SHARD1_PORT=19082
GATHER_PORT=19090

BIN="$(mktemp -d)"
PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$BIN"
}
trap cleanup EXIT

log() { echo "shard-smoke: $*" >&2; }
die() {
    log "FAIL: $*"
    exit 1
}

# wait_until DESC URL GREP: poll URL (2s curl timeout) until the body
# matches GREP, for up to ~60s.
wait_until() {
    local desc=$1 url=$2 want=$3 body=""
    for _ in $(seq 1 120); do
        body="$(curl -fsS -m 2 "$url" 2>/dev/null || true)"
        if grep -q "$want" <<<"$body"; then return 0; fi
        sleep 0.5
    done
    die "$desc: $url never matched '$want' (last body: $body)"
}

log "building binaries (GOFLAGS=${GOFLAGS:-})"
go build -o "$BIN" ./cmd/quarryd ./cmd/quarryrouter ./cmd/quarry

log "starting single-node control (sf=$SF) and a 2-way shard fleet"
"$BIN/quarryd" -addr ":$CONTROL_PORT" -sf "$SF" &
PIDS+=($!)
"$BIN/quarryd" -addr ":$SHARD0_PORT" -sf "$SF" -shards 2 -shard-index 0 &
PIDS+=($!)
"$BIN/quarryd" -addr ":$SHARD1_PORT" -sf "$SF" -shards 2 -shard-index 1 &
PIDS+=($!)
wait_until "control up" "http://localhost:$CONTROL_PORT/api/health" '"role":"primary"'
wait_until "shard 0 up" "http://localhost:$SHARD0_PORT/api/health" '"shard_index":0'
wait_until "shard 1 up" "http://localhost:$SHARD1_PORT/api/health" '"shard_index":1'

# The requirement lifecycle runs on every node in the same order —
# the lockstep contract that keeps the fleet's epochs equal.
log "registering the revenue requirement and running ETL on all nodes"
XRQ="$("$BIN/quarry" xrq -name revenue)"
for port in "$CONTROL_PORT" "$SHARD0_PORT" "$SHARD1_PORT"; do
    curl -fsS -X POST --data-binary "$XRQ" "http://localhost:$port/api/requirements" >/dev/null
    curl -fsS -X POST "http://localhost:$port/api/run" >/dev/null
done

epoch_of() { # epoch_of PORT
    curl -fsS "http://localhost:$1/api/health" | sed -n 's/.*"epoch":\([0-9]*\).*/\1/p'
}
E0="$(epoch_of "$SHARD0_PORT")"
E1="$(epoch_of "$SHARD1_PORT")"
[ -n "$E0" ] && [ "$E0" = "$E1" ] || die "shard epochs diverge after lockstep load: shard0=$E0 shard1=$E1"
log "shards agree on epoch $E0"

log "starting the gather router over both shards"
"$BIN/quarryrouter" -addr ":$GATHER_PORT" \
    -shard-of "http://localhost:$SHARD0_PORT,http://localhost:$SHARD1_PORT" &
PIDS+=($!)
wait_until "gather up" "http://localhost:$GATHER_PORT/api/health" '"role":"shard-gather"'
wait_until "gather sees a complete fleet" "http://localhost:$GATHER_PORT/api/health" '"status":"ok"'

# The golden mix covers every measure type the merge algebra handles;
# float SUM and AVG are the exactness-critical ones (the merge must
# reproduce the single node's bits, not just its approximate values).
QUERIES=(
    '{"fact":"fact_table_revenue","group_by":["n_name"],"measures":[{"out":"total","func":"SUM","col":"revenue"}]}'
    '{"fact":"fact_table_revenue","group_by":["r_name"],"measures":[{"out":"avg_rev","func":"AVG","col":"revenue"},{"out":"n","func":"COUNT"}]}'
    '{"fact":"fact_table_revenue","group_by":["p_brand"],"measures":[{"out":"min_type","func":"MIN","col":"p_type"},{"out":"max_type","func":"MAX","col":"p_type"},{"out":"total","func":"SUM","col":"revenue"}]}'
    '{"fact":"fact_table_revenue","group_by":["s_name"],"measures":[{"out":"total","func":"SUM","col":"revenue"}],"filter":"p_retailprice > 950"}'
    '{"fact":"fact_table_revenue","roll_up":{"Supplier":"Region"},"measures":[{"out":"avg_bal","func":"AVG","col":"s_acctbal"},{"out":"total","func":"SUM","col":"revenue"}]}'
)
olap() { # olap PORT BODY -> response body (fails the script on a non-200)
    curl -fsS -X POST -H 'Content-Type: application/json' \
        -d "$2" "http://localhost:$1/api/olap"
}

# check_identity DESC: every query in the mix must come back from the
# gather byte-identical to the single-node control over the full data.
check_identity() {
    local desc=$1 i=0 ref got
    for q in "${QUERIES[@]}"; do
        ref="$(olap "$CONTROL_PORT" "$q")"
        grep -q '"rows"' <<<"$ref" || die "$desc: control answer $i has no rows: $ref"
        got="$(olap "$GATHER_PORT" "$q")"
        [ "$got" = "$ref" ] || die "$desc: gathered answer $i diverges from the control
query  : $q
control: $ref
gather : $got"
        i=$((i + 1))
    done
    log "$desc: ${#QUERIES[@]}/${#QUERIES[@]} gathered answers byte-identical to the control"
}

check_identity "initial fleet"

log "republishing in lockstep (second ETL run on every node)"
for port in "$CONTROL_PORT" "$SHARD0_PORT" "$SHARD1_PORT"; do
    curl -fsS -X POST "http://localhost:$port/api/run" >/dev/null
done
E0B="$(epoch_of "$SHARD0_PORT")"
E1B="$(epoch_of "$SHARD1_PORT")"
[ -n "$E0B" ] && [ "$E0B" = "$E1B" ] || die "shard epochs diverge after republish: shard0=$E0B shard1=$E1B"
[ "$E0B" != "$E0" ] || die "republish did not advance the epoch (still $E0)"
check_identity "after republish"

log "checking the non-distributive dice contract (shard rejection forwarded)"
DICE='{"fact":"fact_table_revenue","group_by":["n_name"],"measures":[{"out":"n","func":"COUNT"}],"dice":{"func":"COUNT","thresholds":{"n_name":2}}}'
code="$(curl -s -o /tmp/dice_body -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
    -d "$DICE" "http://localhost:$GATHER_PORT/api/olap")"
[ "$code" = "422" ] || die "diced query through the gather = $code, want 422 ($(cat /tmp/dice_body))"
grep -q "not distributive" /tmp/dice_body || die "dice rejection reason missing: $(cat /tmp/dice_body)"

log "checking a malformed X-Quarry-Deadline comes back as the shard's own 400"
code="$(curl -s -o /tmp/deadline_body -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
    -H 'X-Quarry-Deadline: banana' -d "${QUERIES[0]}" "http://localhost:$GATHER_PORT/api/olap")"
[ "$code" = "400" ] || die "malformed deadline through the gather = $code, want 400 ($(cat /tmp/deadline_body))"
grep -q "X-Quarry-Deadline" /tmp/deadline_body || die "the shard's refusal was not forwarded verbatim: $(cat /tmp/deadline_body)"

log "checking design/load operations are refused at the gather"
code="$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://localhost:$GATHER_PORT/api/run")"
[ "$code" = "403" ] || die "POST /api/run on the gather = $code, want 403"

log "killing shard 1; the gather must refuse partial answers"
kill "${PIDS[2]}" 2>/dev/null || true
wait "${PIDS[2]}" 2>/dev/null || true
code="$(curl -s -o /tmp/fail_body -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
    -d "${QUERIES[0]}" "http://localhost:$GATHER_PORT/api/olap")"
[ "$code" = "502" ] || die "query with shard 1 down = $code, want 502 ($(cat /tmp/fail_body))"
grep -q "shard 1" /tmp/fail_body || die "502 does not name the dead shard: $(cat /tmp/fail_body)"
grep -q "refusing partial answer" /tmp/fail_body || die "failure mode not stated: $(cat /tmp/fail_body)"
wait_until "gather health degraded" "http://localhost:$GATHER_PORT/api/health" '"status":"degraded"'
log "dead shard fails the whole query loudly (502) and degrades health"

log "PASS"
