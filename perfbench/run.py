#!/usr/bin/env python3
"""End-to-end benchmark of the Lunule simulator.

Run one workload (builds the harness first, in Release mode, under
.bench_build/ at the repository root):

    python3 perfbench/run.py --workload zipf-read --seed 1 --seconds 30 \
        --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of the traced tick loop with --trace 1.
Lines before it give the run's provenance and every metric with its unit.
The exit status is non-zero when the sources are missing, the build fails
or the correctness gate fails.

    --smoke         shrink the workload so the whole run takes seconds
    --record FILE   append the run's full record (provenance, gate, both
                    metric sets) to FILE as one JSON line

Compare two sets of recorded runs (A = parent, B = change):

    python3 perfbench/run.py --compare A.jsonl B.jsonl

prints, per workload and end-to-end metric, each side's median and
quartiles, the pairs B won, and a verdict (better / worse / unresolved).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_e2e")
# The harness must finish well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# -- Build --------------------------------------------------------------------


def build():
    """Configures (once) and builds the harness; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found under " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    run_build_step(["cmake", "--build", BUILD_DIR, "--target",
                    "perfbench_e2e", "-j", jobs])


def run_build_step(cmd):
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        fail("build step failed: " + " ".join(cmd))


# -- Provenance ---------------------------------------------------------------


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, env=env)
    except OSError:
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def source_digest():
    """SHA-256 over the files the harness is built from (src/, perfbench/),
    so runs of a checkout without git history still name their code."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


# -- One run ------------------------------------------------------------------


def run_workload(args):
    build()
    cmd = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % args.trace]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd.append("--spans=" + os.path.join(
            spans_dir, "%s-seed%d.csv" % (args.workload, args.seed)))
    # Timed runs must not validate: the checker only runs in the traced loop.
    env = {k: v for k, v in os.environ.items() if k != "LUNULE_VALIDATE"}
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    if not lines or p.returncode not in (0, 1):
        fail("harness failed with exit status %d" % p.returncode)
    record = json.loads(lines[-1])

    prov = record["provenance"]
    prov["git_commit"] = git_commit()
    prov["source_sha256"] = source_digest()
    if not prov["optimized"]:
        prov["warning"] = "non-optimised build: timings are not comparable"
        print("perfbench: WARNING: " + prov["warning"], file=sys.stderr)
    record["trace"] = args.trace

    kind = "per_layer" if args.trace else "end_to_end"
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print("gate: %s (%d of %d ops failed)%s" % (
        "ok" if record["correct"] else "FAILED", record["failed"],
        record["attempted"],
        "".join("\n  " + e for e in record["gate_errors"])))
    for name, m in record[kind].items():
        print("  %-40s %16.6g %s" % (name, m["value"], m["unit"]))

    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record[kind]}))
    return 0 if record["correct"] else 1


# -- A/B compare --------------------------------------------------------------


def load_records(path):
    """Untraced-run records of one result set, grouped by workload."""
    by_workload = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            r = json.loads(line)
            if r.get("trace", 0) == 0:
                workload = r["provenance"]["workload"]
                by_workload.setdefault(workload, []).append(r)
    return by_workload


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pair_runs(a, b):
    """Pairs A and B runs by seed when both sides ran the same seeds, and
    in recorded order otherwise."""
    seeds_a = [r["provenance"]["seed"] for r in a]
    seeds_b = [r["provenance"]["seed"] for r in b]
    if sorted(seeds_a) == sorted(seeds_b) and len(set(seeds_a)) == len(a):
        by_seed = {r["provenance"]["seed"]: r for r in b}
        return [(r, by_seed[r["provenance"]["seed"]]) for r in a]
    return list(zip(a, b))


def verdict(pairs_won, pairs_lost, n_pairs, gain, spread_a):
    """A side wins when it takes at least nine tenths of all pairs (ties
    count for neither) and the medians differ by more than the parent's
    interquartile spread."""
    if n_pairs and abs(gain) > spread_a:
        if gain > 0 and pairs_won >= 0.9 * n_pairs:
            return "better"
        if gain < 0 and pairs_lost >= 0.9 * n_pairs:
            return "worse"
    return "unresolved"


def compare(path_a, path_b):
    spec = load_benchmark_spec()
    runs_a, runs_b = load_records(path_a), load_records(path_b)
    print("%-18s %-12s %38s %38s %7s %-10s %s" % (
        "workload", "metric", "A q1 / median / q3", "B q1 / median / q3",
        "B won", "verdict", "within bound"))
    for w in [x["name"] for x in spec["workloads"]]:
        if w not in runs_a or w not in runs_b:
            print("%-18s (missing from %s)" % (
                w, path_a if w not in runs_a else path_b))
            continue
        pairs = pair_runs(runs_a[w], runs_b[w])
        for m in spec["end_to_end"]:
            name, sign = m["name"], (1 if m["better"] == "higher" else -1)
            va = [r["end_to_end"][name]["value"] for r in runs_a[w]]
            vb = [r["end_to_end"][name]["value"] for r in runs_b[w]]
            qa, qb = quartiles(va), quartiles(vb)
            diffs = [sign * (rb["end_to_end"][name]["value"] -
                             ra["end_to_end"][name]["value"])
                     for ra, rb in pairs]
            won = sum(d > 0 for d in diffs)
            lost = sum(d < 0 for d in diffs)
            gain = sign * (qb[1] - qa[1])
            within = gain >= -m["bound"] * abs(qa[1])
            print("%-18s %-12s %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g "
                  "%3d/%-3d %-10s %s" % (
                      w, name, qa[0], qa[1], qa[2], qb[0], qb[1], qb[2], won,
                      len(pairs),
                      verdict(won, lost, len(pairs), gain, qa[2] - qa[0]),
                      "yes" if within else "NO"))
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record", metavar="FILE")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None or args.seed is None:
        ap.error("--workload and --seed are required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
