#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark binary:
#
#   bash bench/run.sh                                  # all workloads, full report
#   bash bench/run.sh --workload udp-flood --seed 7 --seconds 20 --trace 0
#   bash bench/run.sh -compare a.json b.json
#
# The build cache, the binary and every scratch file live under
# .bench_build/ in the repository root, so nothing is written elsewhere.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f bench/go.mod ]; then
	echo "bench/run.sh: run from the repository root (needs go.mod and bench/go.mod)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
