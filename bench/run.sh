#!/usr/bin/env bash
# Builds the benchmark and the rescued daemon from this checkout, then
# runs the benchmark with the given arguments, for example:
#
#   bash bench/run.sh --workload table3-cold --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, its temporary files and span trees
# stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -o "$out/bench" .)
go build -o "$out/rescued" ./cmd/rescued
exec "$out/bench" "$@"
