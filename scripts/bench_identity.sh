#!/usr/bin/env bash
# Byte-identity check for changes that must not move any simulation output
# (performance and simplification work): builds <ref> and the working tree
# with the same build type, runs every bench/ binary except the micro_*
# google-benchmark timers and every examples/ binary (at its tier-1 smoke
# arguments from examples/CMakeLists.txt) on both, and diffs their stdout
# and exit status.  When both sides' lunule_proptest has the
# --digest-configs mode, it also compares the digest sweep: the result
# and trace digests of generated configs seeds 1-3 x 40 under all seven
# balancers, trace on.  It also prints the net src/ line delta of the
# working tree against <ref> (lines added, removed and net), the number a
# simplification reports.
#
#   scripts/bench_identity.sh <ref>          e.g. scripts/bench_identity.sh HEAD~1
#
# <ref> is exported with `git archive` into build-identity/ref-src/
# (gitignored, like every build*/ directory) and removed again on exit,
# so the check writes nothing into .git.  Both sides build as
# RelWithDebInfo, the repo's default, and the binaries run one at a time.
# Exits 0 when every output matches, 1 when any differs, 2 on usage or
# build errors.  Not part of CI: it doubles the build.
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

cleanup() { rm -rf "$REF_SRC"; }
trap cleanup EXIT

cleanup  # a previous run killed before its trap fired
mkdir -p "$REF_SRC"
git archive "$ref_sha" | tar -x -C "$REF_SRC"

# Lines added and removed under src/, working tree against <ref>.
read -r src_added src_removed < <(
  git diff --no-index --no-renames --numstat "$REF_SRC/src" src |
    awk '{ added += $1; removed += $2 } END { print added + 0, removed + 0 }')

# Simulation benches of the working tree; a bench present on one side only
# counts as a difference.
mapfile -t benches < <(
  { ls bench/*.cpp; ls "$REF_SRC"/bench/*.cpp; } |
    xargs -n1 basename | sed 's/\.cpp$//' |
    grep -v '^micro_' | sort -u)
# Examples of either side, each run with the working tree's smoke
# arguments (the COMMAND of its add_test), so both sides see the same
# command line.
mapfile -t examples < <(
  { ls examples/*.cpp; ls "$REF_SRC"/examples/*.cpp; } |
    xargs -n1 basename | sed 's/\.cpp$//' | sort -u)
smoke_args() {  # <example>
  tr '\n' ' ' <examples/CMakeLists.txt |
    grep -oE "COMMAND $1( [^)]*)?\)" | sed -E "s/^COMMAND $1//; s/\)\$//"
}
# Only bench, example and proptest CLI targets are needed; they share one
# build with the library.
build() {  # <source dir> <build dir>
  cmake -S "$1" -B "$2" "${GENERATOR[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    >"$2.configure.log" 2>&1 || { cat "$2.configure.log" >&2; exit 2; }
  local targets=(--target lunule_proptest_cli)
  for b in "${benches[@]}"; do
    [[ -f $1/bench/$b.cpp ]] && targets+=(--target "$b")
  done
  for e in "${examples[@]}"; do
    [[ -f $1/examples/$e.cpp ]] && targets+=(--target "$e")
  done
  cmake --build "$2" -j "$(nproc)" "${targets[@]}" >"$2.build.log" 2>&1 ||
    { tail -50 "$2.build.log" >&2; exit 2; }
}
echo "bench_identity: building $1 ($ref_sha) and the working tree"
build "$REF_SRC" "$OUT/ref"
build . "$OUT/work"

# The digest sweep runs only when both sides have the mode (an older
# lunule_proptest rejects the flag as unknown).
sweeps=()
if "$OUT/ref/lunule_proptest" --digest-configs 0 >/dev/null 2>&1 &&
  "$OUT/work/lunule_proptest" --digest-configs 0 >/dev/null 2>&1; then
  sweeps=(digest-configs-seed1 digest-configs-seed2 digest-configs-seed3)
else
  echo "bench_identity: skipped the digest sweep (lunule_proptest" \
    "--digest-configs missing on one side)"
fi

run_one() {  # <binary> <output stem> [args...]
  local bin=$1 stem=$2
  shift 2
  if [[ -x $bin ]]; then
    local rc=0
    "$bin" "$@" >"$stem.out" 2>"$stem.err" || rc=$?
    echo "exit status: $rc" >>"$stem.out"
  else
    echo "missing" >"$stem.out"
  fi
}
run_side() {  # <build dir> <output dir>
  mkdir -p "$2/examples"
  for b in "${benches[@]}"; do
    run_one "$1/bench/$b" "$2/$b"
  done
  for e in "${examples[@]}"; do
    local args
    read -r -a args <<<"$(smoke_args "$e")"
    run_one "$1/examples/$e" "$2/examples/$e" "${args[@]}"
  done
  for s in "${sweeps[@]}"; do
    run_one "$1/lunule_proptest" "$2/$s" --digest-configs 40 \
      --seed "${s#digest-configs-seed}"
  done
}
rm -rf "$OUT/out"
run_side "$OUT/ref" "$OUT/out/ref"
run_side "$OUT/work" "$OUT/out/work"

status=0
for b in "${benches[@]}" "${examples[@]/#/examples/}" "${sweeps[@]}"; do
  if cmp -s "$OUT/out/ref/$b.out" "$OUT/out/work/$b.out"; then
    echo "identical  $b"
  else
    echo "DIFFERENT  $b"
    diff "$OUT/out/ref/$b.out" "$OUT/out/work/$b.out" | head -20 || true
    status=1
  fi
done
echo "bench_identity: ${#benches[@]} benches, ${#examples[@]} examples," \
  "${#sweeps[@]} digest sweeps, outputs in $OUT/out/{ref,work}"
echo "bench_identity: src/ against $1: +$src_added/-$src_removed," \
  "net $((src_added - src_removed))"
exit $status
