#!/usr/bin/env bash
# Full verification: warnings-as-errors build, complete test suite, and the
# whole bench harness (every [SHAPE-CHECK] must pass).  This is the command
# CI would run.
set -euo pipefail
cd "$(dirname "$0")/.."

# build-check/ (like every build*/ directory) is gitignored; nothing this
# script produces may ever be committed — CI's hygiene job enforces that.
BUILD_DIR=${BUILD_DIR:-build-check}

# The epoch-boundary InvariantChecker audits every scenario the suite runs.
export LUNULE_VALIDATE=1

# Ninja is preferred but not everywhere; fall back to CMake's default
# generator (usually Make) instead of failing on machines without it.
GENERATOR=()
if command -v ninja >/dev/null 2>&1; then
  GENERATOR=(-G Ninja)
fi

cmake -B "$BUILD_DIR" "${GENERATOR[@]}" -DLUNULE_WERROR=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"
# Two tiers (see docs/TESTING.md): the gtest suites, then the
# property-fuzzing entry points (corpus replay, generation determinism,
# smoke campaign).  Split so a fuzz regression is immediately attributable.
ctest --test-dir "$BUILD_DIR" -j "$(nproc)" --output-on-failure \
  --no-tests=error -L tier1
ctest --test-dir "$BUILD_DIR" -j "$(nproc)" --output-on-failure \
  --no-tests=error -L fuzz

status=0
for bench in "$BUILD_DIR"/bench/*; do
  echo "===== $(basename "$bench")"
  # micro_hotpath writes its JSON record into the working directory by
  # default, over the committed BENCH_hotpath.json; keep it in the build
  # tree so the check leaves the checkout clean.
  args=()
  if [[ $(basename "$bench") == micro_hotpath ]]; then
    args=(--json="$BUILD_DIR/BENCH_hotpath.json")
  fi
  if ! "$bench" "${args[@]}"; then
    echo "BENCH FAILED: $bench"
    status=1
  fi
done
exit $status
