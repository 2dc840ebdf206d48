#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root with the given
# arguments, e.g.
#
#   bash benchmark/run.sh --workload exact-read --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the go command's own configuration
# and telemetry files go to .bench_build/, so a run writes nothing outside
# the checkout. GOTOOLCHAIN=local keeps the go command from fetching a
# toolchain.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd benchmark && go build -o "$out/accord-benchmark" .)
exec "$out/accord-benchmark" "$@"
