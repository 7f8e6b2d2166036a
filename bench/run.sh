#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run leave behind (Go build cache, temp files, the binary, span dumps) lands
# under .bench_build/ at the root of the checkout, which .gitignore names.
#
#   bash bench/run.sh --workload cold-tcp --seed 1 --seconds 26 --trace 0
#   bash bench/run.sh -out snapshot.json   # all four workloads, both passes
#   bash bench/run.sh -history
#   bash bench/run.sh -compare A.json B.json
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="$(dirname "$here")/.bench_build/wanac-bench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
export WANAC_BENCH_DIR="$here" WANAC_BENCH_SCRATCH="$out"
go build -C "$here" -o "$out/wanac-bench" .
exec "$out/wanac-bench" "$@"
