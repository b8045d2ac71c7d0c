"""Pass counts of acceptance criterion 8 on two trees, run alternately.

    python3 tools/criterion8_counts.py PARENT_TREE CHANGE_TREE \\
        [--isolated 20] [--full 5]

Each tree is a checkout of the repository.  In each tree the script
first runs the test alone, --isolated times,

    python -m pytest -q -s \\
        tests/test_acceptance.py::test_criterion_8_performance_trends

then the whole tier-1 suite, --full times.  The trees alternate run by
run, the parent first on odd runs and the change first on even ones, one
run at a time.  Before every run the tree's __pycache__ directories are
removed, and the run has PYTHONDONTWRITEBYTECODE=1 and no pytest cache,
so no run imports from a bytecode cache.

Every run prints one line: the kind of run, its number, the side, PASS or
FAIL, the test's own "criterion 8:" line, with its medians, and pytest's
summary.  The last lines give each side's pass counts.  Only the standard library is used,
and nothing in the trees changes but their caches.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
TEST = "tests/test_acceptance.py::test_criterion_8_performance_trends"
MARK = "criterion 8:"
KINDS = {"isolated": [TEST],
         "full": ["--continue-on-collection-errors"]}


def run_once(tree: Path, kind: str):
    """(passed, the test's criterion 8 line, pytest's summary line) of one
    run in tree."""
    for cache in tree.glob("**/__pycache__"):
        shutil.rmtree(cache, ignore_errors=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, ["src", os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p",
         "no:cacheprovider", *KINDS[kind]],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    # in a full run pytest's progress dots come first on the line
    line = next((s[s.index(MARK):].strip() for s in lines if MARK in s),
                "no criterion 8 line")
    return line.startswith(MARK + " PASS"), line, lines[-1] if lines else ""


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--isolated", type=int, default=20,
                    help="runs of criterion 8 alone per tree (default 20)")
    ap.add_argument("--full", type=int, default=5,
                    help="runs of the whole suite per tree (default 5)")
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "tests" / "test_acceptance.py").is_file():
            ap.error("%s tree %s has no tests/test_acceptance.py"
                     % (side, tree))
    passes = {(kind, side): 0 for kind in KINDS for side in SIDES}
    for kind in KINDS:
        for i in range(1, getattr(args, kind) + 1):
            for side in (SIDES if i % 2 else SIDES[::-1]):
                ok, line, summary = run_once(trees[side], kind)
                passes[kind, side] += ok
                print("%-8s %2d %-6s %s  %s  [%s]" % (
                    kind, i, side, "PASS" if ok else "FAIL", line,
                    summary.strip("= ")), flush=True)
    for kind in KINDS:
        for side in SIDES:
            print("%s %s: %d of %d passed" % (
                kind, side, passes[kind, side], getattr(args, kind)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
