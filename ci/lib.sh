# Helpers the CI smokes (ci/*_smoke.sh) share; each smoke sets SMOKE,
# the prefix of its log lines, and sources this file. It makes two
# temporary directories, BIN for the built binaries and WORK for data
# directories; a smoke appends the pid of every process it starts to
# PIDS, and on exit each of them is killed and both directories are
# removed.

BIN="$(mktemp -d)"
WORK="$(mktemp -d)"
PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$BIN" "$WORK"
}
trap cleanup EXIT

log() { echo "$SMOKE: $*" >&2; }
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
