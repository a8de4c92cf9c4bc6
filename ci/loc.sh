#!/usr/bin/env bash
# Non-test code-line count of the Go sources under internal/ and cmd/:
# blank lines and comment-only lines excluded. This is the number the
# CHANGES.md entries of "removes code at equal behaviour" PRs quote;
# the lint job prints it (report only, no gate): the per-package
# breakdown, then the total on the last line.
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # count FILE... -> code lines
    cat "$@" | grep -v '^\s*$' | grep -v '^\s*//' | wc -l
}

mapfile -t files < <(find internal cmd -name '*.go' -not -name '*_test.go' | sort)
total="$(count "${files[@]}")"
for dir in $(printf '%s\n' "${files[@]}" | xargs -n1 dirname | sort -u); do
    printf '%7d  %s\n' "$(count $(printf '%s\n' "${files[@]}" | grep "^$dir/[^/]*$"))" "$dir"
done
printf '%7d  total (internal/ + cmd/, non-test, non-blank, non-comment)\n' "$total"
