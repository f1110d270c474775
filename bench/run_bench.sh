#!/usr/bin/env bash
# Builds and runs every bench binary that writes a BENCH file, leaving
# BENCH_<name>.json at the repo root so successive PRs accumulate a perf
# trajectory. Every binary runs even after one fails a check or a gate,
# so no file is left stale; the script then exits non-zero.
#
# Usage: bench/run_bench.sh [--quick] [BUILD_DIR]
#   --quick    smaller key counts (CI smoke run; skips the out-of-LLC
#              sizes, so also the E22 gate and the 16M gates of
#              bench_batch). Each file records it as "quick": true.
#   BUILD_DIR  existing CMake build tree (default: build).
set -euo pipefail

cd "$(dirname "$0")/.."

QUICK=""
BUILD_DIR="build"
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK="--quick" ;;
    *) BUILD_DIR="$arg" ;;
  esac
done

BENCHES="batch concurrent hash obs lsm tuner range snapshot seqsearch"
cmake -B "$BUILD_DIR" -S . >/dev/null
# shellcheck disable=SC2046
cmake --build "$BUILD_DIR" --target $(printf 'bench_%s ' $BENCHES) \
  -j "$(nproc)" >/dev/null

failed=""
for b in $BENCHES; do
  "$BUILD_DIR/bench/bench_$b" $QUICK --json="BENCH_$b.json" || failed="$failed $b"
done
if [ -n "$failed" ]; then
  echo "failed:$failed" >&2
  exit 1
fi
