#!/usr/bin/env bash
# Overload smoke: boot a real quarryd with a deliberately tiny
# executor pool and an SLO target, then drive it far past capacity
# with quarrybench and prove GRACEFUL degradation end to end:
#
#   - the server sheds (429 + Retry-After) instead of queueing without
#     bound — the run must contain sheds (-min-shed) or the server
#     never actually defended its SLO;
#   - nothing breaks: zero non-shed errors (-max-error-rate 0) and
#     zero oracle mismatches (quarrybench exits non-zero on any), so
#     the answers served DURING overload are still byte-correct;
#   - admitted latency stays bounded: the p99 of answered requests
#     stays at the SLO's scale (-max-p99) even though offered load is
#     ~3x capacity — without admission the queue (and with it the
#     tail) grows for the whole run and ends tens of seconds deep;
#   - the books balance exactly: server counter deltas must satisfy
#     queries = answered + shed + query_errors and agree with the
#     client's own 429 count (-expect-reconcile).
#
# The result cache is disabled so every request costs real executor
# time; cache-hit fast-pathing under overload is covered by the unit
# tests (hits bypass admission entirely).
#
# The gated run offers max(QPS, 3 x the warm-up's goodput): a fixed
# rate that overloads one host is idle load for a faster host or a
# faster build, and a run that sheds nothing proves nothing.
#
# CI runs this as-is; locally plain `./ci/overload_smoke.sh` works too
# (tunables: SF, QPS, DURATION, SLO, OUT). Only bash + curl + jq + go.
set -euo pipefail

SF="${SF:-1000}"
QPS="${QPS:-300}"
DURATION="${DURATION:-10s}"
SLO="${SLO:-250ms}"
# The p99 gate is deliberately loose relative to the SLO because CI
# runners can be single-core: the server, the open-loop client, and
# the GC share one CPU there, and contended service times swing ~4x
# around the per-class mean the admission controller projects with
# (observed tails on a 1-core box: 0.4-3.2s). The property this
# proves is still sharp: at ~3x capacity the admitted tail stays
# BOUNDED at the low seconds for the whole run, where an unprotected
# queue would end tens of seconds deep and every request would blow
# the client timeout — which the zero-error gate would also catch.
MAX_P99="${MAX_P99:-4s}"
OUT="${OUT:-BENCH_overload_local.json}"
PORT=18075

SMOKE=overload-smoke
# shellcheck source=ci/lib.sh
source "$(dirname "${BASH_SOURCE[0]}")/lib.sh"

log "building binaries (GOFLAGS=${GOFLAGS:-})"
go build -o "$BIN" ./cmd/quarryd ./cmd/quarry ./cmd/quarrybench

# Two executor slots + no result cache = a small, known capacity the
# offered load can dependably exceed; -default-deadline (kept under
# quarrybench's 10s client timeout, far over the admitted tail)
# backstops any query the admission projection underestimates.
log "starting quarryd (sf=$SF, 2 executor slots, slo $SLO, cache off)"
"$BIN/quarryd" -addr ":$PORT" -sf "$SF" -data-dir "$WORK/primary" \
    -olap-concurrency 2 -olap-cache -1 -matagg=false \
    -slo-target "$SLO" -default-deadline 8s &
PIDS+=($!)
wait_until "quarryd up" "http://localhost:$PORT/api/health" '"role":"primary"'

log "registering the revenue requirement and running ETL"
"$BIN/quarry" xrq -name revenue |
    curl -fsS -X POST --data-binary @- "http://localhost:$PORT/api/requirements" >/dev/null
curl -fsS -X POST "http://localhost:$PORT/api/run" >/dev/null

# Warm the admission controller's per-class cost model before the
# gated run. The EWMA priors are deliberately cheap (they describe a
# tiny warehouse); at this SF real queries cost ~40x more, so a cold
# controller over-admits for the first second and that one-time queue
# drains for seconds — exactly the latency cliff admission exists to
# prevent in steady state. A short ungated burst converges the
# estimates, the same way an operator would soak a node before
# pointing SLO-gated traffic at it.
log "warming the admission cost model (ungated ${WARMUP:-3s} burst)"
"$BIN/quarrybench" -target "http://localhost:$PORT" \
    -qps "$QPS" -duration "${WARMUP:-3s}" -oracle-every 3 \
    -out "$WORK/warmup.json" >/dev/null 2>&1 || true
sleep 1 # let warmup stragglers settle so the gated run's counter deltas reconcile

WARM_GOODPUT="$(jq -r '.goodput_rps // 0' "$WORK/warmup.json" 2>/dev/null || echo 0)"
DRIVE_QPS="$(awk -v q="$QPS" -v g="$WARM_GOODPUT" 'BEGIN{d = 3 * g; if (d < q) d = q; printf "%d", d}')"
log "driving overload: $DRIVE_QPS qps (warm-up goodput ${WARM_GOODPUT} rps) for $DURATION (oracle every 3rd request)"
"$BIN/quarrybench" \
    -target "http://localhost:$PORT" \
    -qps "$DRIVE_QPS" -duration "$DURATION" \
    -oracle-every 3 \
    -max-error-rate 0 -min-shed 1 -max-p99 "$MAX_P99" -expect-reconcile \
    -out "$OUT" || die "quarrybench gate tripped"

# Belt and braces on top of quarrybench's own gates: the health
# endpoint must report the shed counter the run produced, and goodput
# must be real (the server answered under overload, not just refused).
HEALTH="$(curl -fsS "http://localhost:$PORT/api/health")"
grep -q '"shed"' <<<"$HEALTH" || die "/api/health does not expose the shed counter: $HEALTH"
SHED="$(jq -r .shed <<<"$HEALTH")"
[ "$SHED" -ge 1 ] || die "/api/health shed counter is $SHED after an overload run"
GOODPUT="$(jq -r .goodput_rps "$OUT")"
awk -v g="$GOODPUT" 'BEGIN{exit !(g > 0)}' || die "goodput $GOODPUT rps: the server refused everything"

log "PASS: shed=$SHED goodput=${GOODPUT}rps (artifact: $OUT)"
