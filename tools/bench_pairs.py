"""Alternating parent/change benchmark pairs, summarised as a BENCH file.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --seeds 1-10 \\
        --out BENCH_<tag>.json

Each tree is a checkout of the repository.  For every seed, both trees run
their own, unchanged

    python3 perfbench/run.py --workload all --seed S --seconds 20 --trace 0

one run at a time; the parent goes first on odd seeds and the change on
even ones.  Before every run the tree's src/grayspace/__pycache__ is
removed, and the run has PYTHONDONTWRITEBYTECODE=1, so neither side ever
imports from a bytecode cache: a cache on one side alone moves setup_s
about 3x.

The output holds, per workload and gated metric (setup_s, item_ms), both
sides' medians and inclusive quartiles, change_over_parent (the ratio of
the medians) and change_lower_in_pairs (in how many seeds the change read
lower); the failed and attempted ops of each side; the machine, the
commits, the src/ line counts and the raw runs.  Only the standard library
is used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

METRICS = ("setup_s", "item_ms")
SIDES = ("parent", "change")
SECONDS = 20            # run length of each workload, as the benchmark sets


def seed_range(text):
    """'A-B' as a list of ints; the quartiles need at least two seeds."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(
            "seed range %r has fewer than two seeds" % text)
    return seeds


def run_side(tree: Path, seed: int):
    """One perfbench run of every workload in tree: a raw-run record per
    workload."""
    shutil.rmtree(tree / "src" / "grayspace" / "__pycache__",
                  ignore_errors=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all",
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    wall = round(time.perf_counter() - start, 1)
    pycache = (tree / "src" / "grayspace" / "__pycache__").exists()
    result = tree / ".perfbench" / ("result-all-seed%d-trace0.json" % seed)
    if proc.returncode or not result.exists():
        raise SystemExit("perfbench failed in %s (seed %d, exit %d):\n%s"
                         % (tree, seed, proc.returncode, proc.stderr))
    records = []
    for r in json.loads(result.read_text())["results"]:
        records.append({
            "workload": r["workload"],
            **{m: round(r["metrics"][m]["value"], 6) for m in METRICS},
            "attempted": r["attempted"], "failed": r["failed"],
            "gauge_ms_median": r["notes"]["gauge_ms_median"],
            "pycache_after": pycache, "wall_s": wall})
    return records


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 6), round(q3, 6)]


def summarise(runs):
    """Per workload: each metric's medians, quartiles and pair counts, and
    the failed and attempted ops of each side."""
    summary = {}
    for wl in sorted({r["workload"] for r in runs}):
        by = {side: {r["seed"]: r for r in runs
                     if r["workload"] == wl and r["side"] == side}
              for side in SIDES}
        seeds = sorted(set(by["parent"]) & set(by["change"]))
        entry = summary[wl] = {}
        for m in METRICS:
            p = [by["parent"][s][m] for s in seeds]
            c = [by["change"][s][m] for s in seeds]
            lower = sum(b < a for a, b in zip(p, c))
            entry[m] = {
                "parent_median": round(statistics.median(p), 6),
                "parent_quartiles": quartiles(p),
                "change_median": round(statistics.median(c), 6),
                "change_quartiles": quartiles(c),
                "change_over_parent": round(statistics.median(c)
                                            / statistics.median(p), 4),
                "change_lower_in_pairs": "%d of %d" % (lower, len(seeds))}
        for key in ("failed", "attempted"):
            entry[key + "_ops"] = {side: sum(r[key] for r in by[side].values())
                                   for side in SIDES}
    return summary


def commit(tree: Path):
    """tree's HEAD commit, or None when it is not a git checkout."""
    proc = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_files(tree: Path):
    return sorted((tree / "src" / "grayspace").glob("*.py"))


def src_sha256(tree: Path):
    """The first 16 hex digits of the sha256 of src/grayspace/*.py
    concatenated in sorted path order."""
    h = hashlib.sha256()
    for path in src_files(tree):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def src_lines(tree: Path):
    return sum(len(p.read_text().splitlines()) for p in src_files(tree))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--seeds", type=seed_range, required=True,
                    help="seed range, as A-B")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "perfbench" / "run.py").is_file():
            ap.error("%s tree %s has no perfbench/run.py" % (side, tree))
    runs = []
    for seed in args.seeds:
        order = SIDES if seed % 2 else SIDES[::-1]
        for side in order:
            for record in run_side(trees[side], seed):
                runs.append({"seed": seed, "side": side, **record})
            print("seed %d %s done" % (seed, side), file=sys.stderr)
    seeds = "%d-%d" % (args.seeds[0], args.seeds[-1])
    bench = {
        "what": "perfbench runs of the parent and of the change, "
                "alternating; times are scaled by the harness's speed gauge",
        "command": "python3 perfbench/run.py --workload all --seed <s> "
                   "--seconds %d --trace 0" % SECONDS,
        "order": "seeds %s: the parent ran first on odd seeds, the change "
                 "on even seeds; one run at a time; "
                 "PYTHONDONTWRITEBYTECODE=1 and src/grayspace/__pycache__ "
                 "removed before every run" % seeds,
        "machine": "%s %s  %s  nproc=%d" % (
            platform.python_implementation(), platform.python_version(),
            platform.platform(), len(os.sched_getaffinity(0))),
        "commits": {side: commit(tree) for side, tree in trees.items()},
        "src_sha256": {side: src_sha256(tree) for side, tree in trees.items()},
        "src_sha256_of": "the bytes of src/grayspace/*.py concatenated in "
                         "sorted path order",
        "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
        "summary": summarise(runs),
        "runs": runs,
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
