#!/usr/bin/env bash
# The Quarry benchmark, one command: build quarryd, quarryrouter and the
# benchmark's own two binaries from source, then hand every argument to
# the driver.
#
#   bench/run.sh                                   all four workloads, untraced then traced
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                  one run; result as JSON on the last line
#   bench/run.sh --quick ...                       smoke sizes (scale factor 5)
#
# Everything it writes stays inside bench/: build cache and binaries
# under bench/.build/, logs, traces, results and the servers' data
# directories under bench/out/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/bench/.build"
mkdir -p "$build/bin" "$build/tmp" bench/out

# A hermetic Go environment: nothing is read from or written to the
# user's caches, and nothing is fetched (the repository has no
# dependencies).
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

go build -o "$build/bin/" ./cmd/quarryd ./cmd/quarryrouter
(cd bench && go build -o "$build/bin/" ./driver ./layers)

exec "$build/bin/driver" "$@"
