#!/usr/bin/env bash
# Flag tables: the flags each operational binary accepts (its -h
# listing) must be exactly the rows of its table in docs/OPERATIONS.md
# (the "### `quarryd`", "### `quarryrouter`" and "### `quarrybench`"
# sections). Fails on any flag one side has and the other lacks; prints
# the per-binary counts and the total. Only bash + go.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN="$(mktemp -d)"
trap 'rm -rf "$BIN"' EXIT
go build -o "$BIN" ./cmd/quarryd ./cmd/quarryrouter ./cmd/quarrybench

# from_binary NAME: the flag names its -h prints (to stderr, exit 2).
from_binary() {
    { "$BIN/$1" -h 2>&1 || true; } | sed -nE 's/^  -([a-z0-9-]+).*/\1/p' | sort
}

# from_docs NAME: the flag names in the first column of its table.
from_docs() {
    awk -v h="### \`$1\`" '$0 == h {on = 1; next} /^#/ {on = 0} on' docs/OPERATIONS.md |
        sed -nE 's/^\| `-([a-z0-9-]+)` \|.*/\1/p' | sort
}

status=0
total=0
for b in quarryd quarryrouter quarrybench; do
    bin="$(from_binary "$b")"
    doc="$(from_docs "$b")"
    n="$(grep -c . <<<"$bin" || true)"
    total=$((total + n))
    printf '%4d  %s\n' "$n" "$b"
    if [ "$bin" != "$doc" ]; then
        echo "flags: $b and its table in docs/OPERATIONS.md differ (< binary, > docs):" >&2
        diff <(echo "$bin") <(echo "$doc") >&2 || true
        status=1
    fi
done
printf '%4d  total\n' "$total"
exit "$status"
