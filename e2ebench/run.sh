#!/usr/bin/env bash
# Builds certd and the load generator from this checkout, then runs one
# benchmark workload. Run from the repository root:
#
#   bash e2ebench/run.sh --workload inline-fo --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/certd" ./cmd/certd
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -certd "$out/certd" -workdir "$out/run" "$@"
