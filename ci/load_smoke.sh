#!/usr/bin/env bash
# Load smoke: boot a real quarryd, deploy the revenue requirement,
# then drive it with quarrybench — open-loop traffic with reload
# churn and oracle spot checks — and hold the run to zero errors and
# a floor of materialized-aggregate answers. This is the leg that
# proves the serving layer stays correct AND observable under
# sustained concurrent load with the warehouse republishing
# underneath it; the unit/e2e tests cover the same parts one request
# at a time.
#
# CI runs this as-is; locally plain `./ci/load_smoke.sh` works too
# (tunables: SF, QPS, DURATION, OUT). Only bash + curl + go.
set -euo pipefail

SF="${SF:-1}"
QPS="${QPS:-50}"
DURATION="${DURATION:-10s}"
OUT="${OUT:-BENCH_load_local.json}"
PORT=18070

SMOKE=load-smoke
# shellcheck source=ci/lib.sh
source "$(dirname "${BASH_SOURCE[0]}")/lib.sh"

log "building binaries (GOFLAGS=${GOFLAGS:-})"
go build -o "$BIN" ./cmd/quarryd ./cmd/quarry ./cmd/quarrybench

log "starting quarryd (sf=$SF, matagg on, data dir $WORK/primary)"
"$BIN/quarryd" -addr ":$PORT" -sf "$SF" -data-dir "$WORK/primary" -matagg &
PIDS+=($!)
wait_until "quarryd up" "http://localhost:$PORT/api/health" '"role":"primary"'

log "registering the revenue requirement and running ETL"
"$BIN/quarry" xrq -name revenue |
    curl -fsS -X POST --data-binary @- "http://localhost:$PORT/api/requirements" >/dev/null
curl -fsS -X POST "http://localhost:$PORT/api/run" >/dev/null

# Reload churn every 3s purges the version-keyed result cache, so
# repeated queries cannot hide behind it — the matagg hit floor below
# is only reachable if the aggregate store itself serves traffic.
# The floor of 10 is half of what the store serves on this run (SF 1,
# 50 qps x 10 s, seeded Zipf mix), re-measured at PR 20 (observed
# patterns only, hottest first; an entry answers only queries that ran
# its joins): 21 — 18 same-granularity hits + 3 answers merged from a
# finer entry, the filtered float-SUM drill among them — in four runs
# out of four (15 + 6 under the policy before it).
# -max-error-rate 0 fails the job on ANY non-2xx answer, and
# quarrybench exits non-zero by itself if an oracle spot check ever
# diverges from the reference executor.
log "driving load: $QPS qps for $DURATION with reload churn"
"$BIN/quarrybench" \
    -target "http://localhost:$PORT" \
    -qps "$QPS" -duration "$DURATION" \
    -reload-interval 3s -oracle-every 10 \
    -max-error-rate 0 -min-matagg-hits 10 \
    -out "$OUT" || die "quarrybench gate tripped"

log_memory quarryd "${PIDS[0]}"
log "PASS (artifact: $OUT)"
