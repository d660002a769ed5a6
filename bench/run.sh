#!/usr/bin/env bash
# Builds and runs the repository benchmark from the root of a checkout:
#
#   bash bench/run.sh --workload serve-fresh --seed 1 --seconds 18 --trace 0
#
# Every build artefact, the Go build cache and the child daemons' logs stay
# under .bench_build/ in the checkout, so a run reads and writes nothing
# outside it. Flags are passed through to the benchmark (see bench/README.md).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=

go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
