#!/usr/bin/env bash
# Byte-identity check for changes that must not move any simulation output
# (performance and simplification work): builds <ref> and the working tree
# with the same build type, runs every bench/ binary except the micro_*
# google-benchmark timers on both, and diffs their stdout and exit status.
#
#   scripts/bench_identity.sh <ref>          e.g. scripts/bench_identity.sh HEAD~1
#
# <ref> is checked out in a temporary git worktree under build-identity/
# (gitignored, like every build*/ directory) and removed again on exit.
# Both sides build as RelWithDebInfo, the repo's default, and the benches
# run one at a time.  Exits 0 when every bench matches, 1 when any
# differs, 2 on usage or build errors.  Not part of CI: it doubles the
# build.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <ref>" >&2
  exit 2
fi
ref_sha=$(git rev-parse --verify --quiet "$1^{commit}") || {
  echo "bench_identity: unknown ref '$1'" >&2
  exit 2
}

OUT=build-identity
REF_SRC=$OUT/ref-src

GENERATOR=()
if command -v ninja >/dev/null 2>&1; then
  GENERATOR=(-G Ninja)
fi

cleanup() {
  if [[ -d $REF_SRC ]]; then
    git worktree remove --force "$REF_SRC" >/dev/null 2>&1 || true
    rm -rf "$REF_SRC"
  fi
  git worktree prune
}
trap cleanup EXIT

mkdir -p "$OUT"
cleanup  # a previous run killed before its trap fired
git worktree add --detach --quiet "$REF_SRC" "$ref_sha"

# Simulation benches of the working tree; a bench present on one side only
# counts as a difference.
mapfile -t benches < <(
  { ls bench/*.cpp; ls "$REF_SRC"/bench/*.cpp; } |
    xargs -n1 basename | sed 's/\.cpp$//' |
    grep -v '^micro_' | sort -u)
# Only bench targets are needed; benches and the library share one build.
build() {  # <source dir> <build dir>
  cmake -S "$1" -B "$2" "${GENERATOR[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    >"$2.configure.log" 2>&1 || { cat "$2.configure.log" >&2; exit 2; }
  local targets=()
  for b in "${benches[@]}"; do
    [[ -f $1/bench/$b.cpp ]] && targets+=(--target "$b")
  done
  cmake --build "$2" -j "$(nproc)" "${targets[@]}" >"$2.build.log" 2>&1 ||
    { tail -50 "$2.build.log" >&2; exit 2; }
}
echo "bench_identity: building $1 ($ref_sha) and the working tree"
build "$REF_SRC" "$OUT/ref"
build . "$OUT/work"

run_side() {  # <build dir> <output dir>
  mkdir -p "$2"
  for b in "${benches[@]}"; do
    if [[ -x $1/bench/$b ]]; then
      local rc=0
      "$1/bench/$b" >"$2/$b.out" 2>"$2/$b.err" || rc=$?
      echo "exit status: $rc" >>"$2/$b.out"
    else
      echo "missing" >"$2/$b.out"
    fi
  done
}
rm -rf "$OUT/out"
run_side "$OUT/ref" "$OUT/out/ref"
run_side "$OUT/work" "$OUT/out/work"

status=0
for b in "${benches[@]}"; do
  if cmp -s "$OUT/out/ref/$b.out" "$OUT/out/work/$b.out"; then
    echo "identical  $b"
  else
    echo "DIFFERENT  $b"
    diff "$OUT/out/ref/$b.out" "$OUT/out/work/$b.out" | head -20 || true
    status=1
  fi
done
echo "bench_identity: ${#benches[@]} benches, outputs in $OUT/out/{ref,work}"
exit $status
