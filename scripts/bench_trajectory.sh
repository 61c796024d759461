#!/usr/bin/env bash
# Hot-path performance trajectory: builds Release and runs the
# micro_hotpath benchmark (BENCH_hotpath.json) and the latency_profile
# bench (BENCH_latency.json), writing both at the repo root.  The JSONs
# are committed so the perf trajectory of the hot paths and the per-op
# latency distribution are reviewable over time; CI's perf-smoke job runs
# the same command and uploads the files as artifacts.  Both benches run
# even when the first one fails a [SHAPE-CHECK] gate, so both JSONs are
# always fresh; the script exits with the worse of the two statuses.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-release}

GENERATOR=()
if command -v ninja >/dev/null 2>&1; then
  GENERATOR=(-G Ninja)
fi

cmake -B "$BUILD_DIR" "${GENERATOR[@]}" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target micro_hotpath --target latency_profile
hotpath=0
"$BUILD_DIR"/bench/micro_hotpath --json=BENCH_hotpath.json || hotpath=$?
latency=0
"$BUILD_DIR"/bench/latency_profile --json=BENCH_latency.json || latency=$?
exit $((hotpath > latency ? hotpath : latency))
