#!/usr/bin/env bash
# Replica smoke: boot the real binaries — a primary quarryd over a
# disk-backed data dir, a shared-dir replica, an HTTP-transport
# replica, and the scatter router — then identity-check /api/olap
# answers across every serving path, exercise a republish (the
# replicas must converge and re-agree), fail a replica under the
# router, and confirm writes are refused everywhere but the primary.
#
# CI runs this with race-enabled binaries (GOFLAGS=-race); locally
# plain `./ci/replica_smoke.sh` works too. Only bash + curl + go.
set -euo pipefail

SF="${SF:-1}"
PRIMARY_PORT=18080
REPLICA1_PORT=18081 # shared-dir transport
REPLICA2_PORT=18082 # HTTP transport
ROUTER_PORT=18090

SMOKE=replica-smoke
# shellcheck source=ci/lib.sh
source "$(dirname "${BASH_SOURCE[0]}")/lib.sh"

log "building binaries (GOFLAGS=${GOFLAGS:-})"
go build -o "$BIN" ./cmd/quarryd ./cmd/quarryrouter ./cmd/quarry

log "starting primary (sf=$SF, data dir $WORK/primary)"
"$BIN/quarryd" -addr ":$PRIMARY_PORT" -sf "$SF" -data-dir "$WORK/primary" &
PIDS+=($!)
wait_until "primary up" "http://localhost:$PRIMARY_PORT/api/health" '"role":"primary"'

log "registering the revenue requirement and running ETL"
"$BIN/quarry" xrq -name revenue |
    curl -fsS -X POST --data-binary @- "http://localhost:$PRIMARY_PORT/api/requirements" >/dev/null
curl -fsS -X POST "http://localhost:$PRIMARY_PORT/api/run" >/dev/null

log "starting replicas (shared-dir and HTTP transports)"
"$BIN/quarryd" -addr ":$REPLICA1_PORT" -sf "$SF" \
    -replica-of "http://localhost:$PRIMARY_PORT" \
    -data-dir "$WORK/replica1" -replica-dir "$WORK/primary" \
    -replica-interval 250ms &
PIDS+=($!)
"$BIN/quarryd" -addr ":$REPLICA2_PORT" -sf "$SF" \
    -replica-of "http://localhost:$PRIMARY_PORT" \
    -data-dir "$WORK/replica2" \
    -replica-interval 250ms &
PIDS+=($!)
wait_until "replica1 converged" "http://localhost:$REPLICA1_PORT/api/health" '"converged":true'
wait_until "replica2 converged" "http://localhost:$REPLICA2_PORT/api/health" '"converged":true'

log "starting router over both replicas"
"$BIN/quarryrouter" -addr ":$ROUTER_PORT" \
    -replicas "http://localhost:$REPLICA1_PORT,http://localhost:$REPLICA2_PORT" \
    -health-interval 500ms &
PIDS+=($!)
wait_until "router up" "http://localhost:$ROUTER_PORT/api/health" '"role":"router"'

OLAP_BODY='{"fact":"fact_table_revenue","group_by":["n_name"],"measures":[{"out":"total","func":"SUM","col":"revenue"}]}'
olap() { # olap PORT -> body (fails the script on a non-200)
    curl -fsS -X POST -H 'Content-Type: application/json' \
        -d "$OLAP_BODY" "http://localhost:$1/api/olap"
}

# check_identity DESC: the primary's answer is the reference; every
# replica and two routed requests (round-robin covers both backends)
# must return byte-identical bodies.
check_identity() {
    local desc=$1 ref got
    ref="$(olap "$PRIMARY_PORT")"
    grep -q '"rows"' <<<"$ref" || die "$desc: primary answer has no rows: $ref"
    for port in "$REPLICA1_PORT" "$REPLICA2_PORT" "$ROUTER_PORT" "$ROUTER_PORT"; do
        got="$(olap "$port")"
        [ "$got" = "$ref" ] || die "$desc: answer from :$port diverges
primary: $ref
:$port : $got"
    done
    log "$desc: identical answers across primary, replicas, router"
}

check_identity "initial fleet"

# The routers do not judge a deadline header: one quarryd cannot read
# travels on, and the replica's 400 is the answer — whether or not the
# replica holds the query's result (a cached answer used to win).
log "checking a malformed X-Quarry-Deadline is refused through the router, result cached or not"
UNCACHED_BODY='{"fact":"fact_table_revenue","group_by":["n_name"],"measures":[{"out":"n","func":"COUNT"}]}'
for body in "$UNCACHED_BODY" "$OLAP_BODY"; do # never asked; then cached on both replicas by check_identity
    code="$(curl -s -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
        -H 'X-Quarry-Deadline: banana' -d "$body" "http://localhost:$ROUTER_PORT/api/olap")"
    [ "$code" = "400" ] || die "malformed deadline through the router = $code, want 400 (body: $body)"
done

log "republishing on the primary (second ETL run) and waiting for the replicas to follow"
curl -fsS -X POST "http://localhost:$PRIMARY_PORT/api/run" >/dev/null
NEW_VERSION="$(curl -fsS "http://localhost:$PRIMARY_PORT/api/health" |
    sed -n 's/.*"warehouse_version":\([0-9]*\).*/\1/p')"
[ -n "$NEW_VERSION" ] || die "could not read the primary's post-run version"
wait_until "replica1 at v$NEW_VERSION" "http://localhost:$REPLICA1_PORT/api/health" "\"local_version\":$NEW_VERSION"
wait_until "replica2 at v$NEW_VERSION" "http://localhost:$REPLICA2_PORT/api/health" "\"local_version\":$NEW_VERSION"
check_identity "after republish"

log "checking writes are refused off the primary"
for port in "$REPLICA1_PORT" "$REPLICA2_PORT" "$ROUTER_PORT"; do
    code="$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://localhost:$port/api/run")"
    [ "$code" = "403" ] || die "POST /api/run on :$port = $code, want 403"
done

log "killing replica1; the router must keep answering from replica2"
kill "${PIDS[1]}" 2>/dev/null || true
wait "${PIDS[1]}" 2>/dev/null || true
ref="$(olap "$PRIMARY_PORT")"
for i in 1 2 3 4; do
    got="$(olap "$ROUTER_PORT")"
    [ "$got" = "$ref" ] || die "failover request $i diverges from the primary"
done
log "router failover: 4/4 identical answers with one replica down"

log "PASS"
