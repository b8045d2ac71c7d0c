"""Python line events per codec op, counted with sys.settrace.

    python3 tools/step_counts.py [TREE] [--seed S]

TREE is a checkout of the repository (default: the one holding this
script); grayspace is imported from its src/.  At each of (16,4,2),
(128,32,2), (256,64,2) and (256,4,3) the script draws one index m with
random.Random(S) (S defaults to 1), encodes it to W and counts the line
events of encode(m), decode(W) and decode_fast(W) in frames whose code
lies in the grayspace package.  Each op runs once untraced first, so
caches filled on first use (Gaussian counts, digit tables, field
arithmetic) are warm and the counts repeat from process to process.

The counts measure work the interpreter does, apart from the speed of
the machine; work done at C speed (big-int arithmetic, int.from_bytes)
makes no line events.  They are printed as one JSON object.  Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
from pathlib import Path

CELLS = ((16, 4, 2), (128, 32, 2), (256, 64, 2), (256, 4, 3))


def line_events(package_dir: str, fn, *args) -> int:
    """The line events of fn(*args) in frames of files under package_dir."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def enter(frame, event, arg):
        if frame.f_code.co_filename.startswith(package_dir):
            return local
        return None

    sys.settrace(enter)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
    return count


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree", nargs="?", type=Path,
                    default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.tree.resolve() / "src"))
    import grayspace
    from grayspace.codec import CodecParams, decode, decode_fast, encode
    from grayspace.field import field_from_order

    package_dir = os.path.dirname(os.path.abspath(grayspace.__file__))
    counts = {}
    for n, k, q in CELLS:
        params = CodecParams(n, k, field_from_order(q))
        m = random.Random(args.seed).randrange(params.size)
        W = encode(params, m)
        cell = {}
        for name, fn, arg in (("encode", encode, m), ("decode", decode, W),
                              ("decode_fast", decode_fast, W)):
            fn(params, arg)
            cell[name] = line_events(package_dir, fn, params, arg)
        counts["%d,%d,%d" % (n, k, q)] = cell
    print(json.dumps({
        "what": "Python line events per op in grayspace frames, one seeded "
                "index per (n,k,q), caches warm",
        "tree": str(args.tree.resolve()),
        "seed": args.seed,
        "python": "%s %s" % (platform.python_implementation(),
                             platform.python_version()),
        "counts": counts,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
