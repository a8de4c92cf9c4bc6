#!/usr/bin/env bash
# Shard smoke: boot the real binaries — two quarryd shards each
# holding one hash partition of the fact table, the gather router in
# front of them, and an unsharded single-node control over the full
# data — then demand byte-identical /api/olap answers from the gather
# and the control across a query mix covering the whole merge algebra
# (float SUM/AVG, COUNT, string MIN/MAX, filters, roll-ups) and a
# diamond dice, which the gather cuts after its merge, through a
# lockstep republish, and once more after the shards' aggregate stores
# have refreshed, answered from their materialized entries (each shard
# must count a hit or a rewrite). Then kill one shard and confirm the
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

SMOKE=shard-smoke
# shellcheck source=ci/lib.sh
source "$(dirname "${BASH_SOURCE[0]}")/lib.sh"

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
# The last query is diced: the shards ship every cell with its hidden
# carat, and the gather cuts the diamond after its merge.
DICED='{"fact":"fact_table_revenue","group_by":["p_brand","p_type"],"measures":[{"out":"total","func":"SUM","col":"revenue"},{"out":"n","func":"COUNT"}],"dice":{"func":"COUNT","thresholds":{"p_brand":2}}}'
QUERIES=(
    '{"fact":"fact_table_revenue","group_by":["n_name"],"measures":[{"out":"total","func":"SUM","col":"revenue"}]}'
    '{"fact":"fact_table_revenue","group_by":["r_name"],"measures":[{"out":"avg_rev","func":"AVG","col":"revenue"},{"out":"n","func":"COUNT"}]}'
    '{"fact":"fact_table_revenue","group_by":["p_brand"],"measures":[{"out":"min_type","func":"MIN","col":"p_type"},{"out":"max_type","func":"MAX","col":"p_type"},{"out":"total","func":"SUM","col":"revenue"}]}'
    '{"fact":"fact_table_revenue","group_by":["s_name"],"measures":[{"out":"total","func":"SUM","col":"revenue"}],"filter":"p_retailprice > 950"}'
    '{"fact":"fact_table_revenue","roll_up":{"Supplier":"Region"},"measures":[{"out":"avg_bal","func":"AVG","col":"s_acctbal"},{"out":"total","func":"SUM","col":"revenue"}]}'
    "$DICED"
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

# The diced query must cut something and keep something, or its
# identity shows nothing: at SF 1 to 3 brands of one row fall away and
# others stay (at SF 0.5 every brand has one row, so nothing stays).
nrows() { # nrows BODY -> the number of rows in an /api/olap answer
    local closing
    closing="$(sed 's/.*"rows":\[//' <<<"$1" | grep -o '\]' | wc -l)"
    echo $((closing - 1))
}
diamond="$(nrows "$(olap "$CONTROL_PORT" "$DICED")")"
cube="$(nrows "$(olap "$CONTROL_PORT" "${DICED%,\"dice\"*}}")")"
if awk "BEGIN { exit !($SF >= 1) }"; then
    [ "$diamond" -gt 0 ] && [ "$diamond" -lt "$cube" ] || die "the diced query's diamond has $diamond of the cube's $cube rows: it must cut some and keep some"
fi
log "the diced query keeps $diamond of the cube's $cube rows"

log "republishing in lockstep (second ETL run on every node)"
for port in "$CONTROL_PORT" "$SHARD0_PORT" "$SHARD1_PORT"; do
    curl -fsS -X POST "http://localhost:$port/api/run" >/dev/null
done
E0B="$(epoch_of "$SHARD0_PORT")"
E1B="$(epoch_of "$SHARD1_PORT")"
[ -n "$E0B" ] && [ "$E0B" = "$E1B" ] || die "shard epochs diverge after republish: shard0=$E0B shard1=$E1B"
[ "$E0B" != "$E0" ] || die "republish did not advance the epoch (still $E0)"
check_identity "after republish"

# The shards logged the mix's partials as patterns, and the republish
# refreshes their aggregate stores in the background. Once each store
# is current, the mix must come back byte-identical again — this time
# answered from the shards' materialized entries.
stat_of() { # stat_of PORT KEY -> the numeric value of "KEY" in the node's /api/olap/stats
    curl -fsS "http://localhost:$1/api/olap/stats" | sed -n "s/.*\"$2\":\([0-9]*\).*/\1/p"
}
served_of() { # served_of PORT -> the shard's matagg hits + rewrites
    echo $(($(stat_of "$1" hits) + $(stat_of "$1" rewrites)))
}
for port in "$SHARD0_PORT" "$SHARD1_PORT"; do
    for _ in $(seq 1 120); do
        [ "$(stat_of "$port" last_refresh_version)" = "$(stat_of "$port" warehouse_version)" ] && break
        sleep 0.5
    done
    [ "$(stat_of "$port" last_refresh_version)" = "$(stat_of "$port" warehouse_version)" ] ||
        die "shard on port $port: aggregate store never refreshed to warehouse version $(stat_of "$port" warehouse_version)"
done
S0="$(served_of "$SHARD0_PORT")"
S1="$(served_of "$SHARD1_PORT")"
check_identity "from the shards' entries"
S0B="$(served_of "$SHARD0_PORT")"
S1B="$(served_of "$SHARD1_PORT")"
[ "$S0B" -gt "$S0" ] && [ "$S1B" -gt "$S1" ] ||
    die "the shards answered no partial from an entry: hits+rewrites shard0 $S0 -> $S0B, shard1 $S1 -> $S1B"
log "shards answered partials from their entries: hits+rewrites shard0 $S0 -> $S0B, shard1 $S1 -> $S1B"

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
