#!/usr/bin/env bash
# Linked functions: every function declared in the non-test Go sources
# outside cmd/, bench/, examples/ and ci/ is linked into a product
# binary (quarryd, quarryrouter, quarry), or ci/linked.allow names it
# with the reason it stays. Fails on an unlinked function the list
# lacks, on a listed name that is linked or no longer declared, and on
# a reason of none of the four kinds (oracle, bench, examples,
# cross-store). Prints the unlinked functions and their line count.
# Only bash + go.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
# -l keeps every called function's symbol: an inlined one has none.
go build -gcflags=all=-l -o "$tmp/" ./cmd/quarryd ./cmd/quarryrouter ./cmd/quarry
for b in quarryd quarryrouter quarry; do go tool nm "$tmp/$b"; done | go run ./ci/unlinked >"$tmp/funcs"

grep -vE '^[[:space:]]*(#|$)' ci/linked.allow >"$tmp/allow" || true
awk '{print $1}' "$tmp/allow" | sort >"$tmp/listed"
sort -u "$tmp/listed" >"$tmp/allowed"
awk '$1 == "unlinked" {print $2}' "$tmp/funcs" | sort >"$tmp/unlinked"
awk '{print $2}' "$tmp/funcs" | sort >"$tmp/declared"

status=0
report() { # report MESSAGE FILE: print the file's lines under the message
    if [ -s "$2" ]; then
        echo "linked: $1:" >&2
        sed 's/^/  /' "$2" >&2
        status=1
    fi
}
comm -23 "$tmp/unlinked" "$tmp/allowed" >"$tmp/x"
report "unlinked and not in ci/linked.allow (delete it, or list it with its reason)" "$tmp/x"
comm -13 "$tmp/unlinked" "$tmp/allowed" | comm -12 - "$tmp/declared" >"$tmp/x"
report "in ci/linked.allow but linked into a binary" "$tmp/x"
comm -13 "$tmp/declared" "$tmp/allowed" >"$tmp/x"
report "in ci/linked.allow but declared nowhere" "$tmp/x"
awk '$2 !~ /^(oracle|bench|examples|cross-store):$/ || NF < 3' "$tmp/allow" >"$tmp/x"
report "ci/linked.allow lines without a reason of a known kind" "$tmp/x"
uniq -d "$tmp/listed" >"$tmp/x"
report "listed twice in ci/linked.allow" "$tmp/x"

awk '$1 == "unlinked" {n++; lines += $4} END {printf "%d functions unlinked (%d lines), %d declared\n", n, lines, NR}' "$tmp/funcs"
exit "$status"
