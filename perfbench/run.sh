#!/usr/bin/env bash
# Builds the load driver from the checkout it sits in and runs one
# workload:
#
#   bash perfbench/run.sh --workload point-zipf --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. The build cache, the binary and
# the run's outputs (span dumps, stacks of stuck operations) all stay
# under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
