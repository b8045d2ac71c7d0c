"""Output-identity hashes of the codec, the GRAY/PROJ writers and verify.

Run from anywhere as `python3 tools/identity_hashes.py`; it imports
grayspace from the `src/` beside this directory.  It prints eight
lines, each a label and the first 16 hex digits of a sha256:

  grid      encode, decode, decode_fast, encode_via_dual and decode_via_dual
            for every index of the acceptance suite's criterion-3 grid
            ([n k]_q <= 10^4 for q in 2,3,4,5,8 and n <= 12);
  large     indices 0, 1, 2, P-2, P-1 and five seeded ones at fifteen
            larger parameter sets (q up to 256): encode, decode_fast and
            the reference decode;
  files     the bytes of `grayspace gen`, `gen --seed` and `proj` files,
            `proj` over GF(2), GF(3) and GF(4) (GF(64) built on GF(4));
  verify    exit code, stdout and stderr of `grayspace verify` on those
            files and on three damaged copies of each;
  wide      encode_via_dual and decode_via_dual at indices 0, P-1 and two
            seeded ones, then dual, intersect and canonicalize on those
            items and on low-dimensional subspaces, at five parameter
            sets with n up to 256, over fields whose rows add lane by
            lane and fields whose rows add entry by entry;
  stream    the rows and pivots of every iter_simple item, and what
            verify_gray_stream reports (passed, duplicates,
            adjacency_failures, first_nonadjacent, wraparound_ok) on the
            stream, on a copy with two items swapped and on one with an
            item repeated, for criterion 2's grid (q <= 4, n <= 6), q in
            5, 7, 8, 9 up to n = 4 and k = 1 at n = 5, 6;
  proj      the bytes of `proj --n 5` at q = 4, 5 and of `proj --n 3` at
            q = 5, 7, 8, 9 (GF(9) adds entry by entry): field sizes the
            files line does not reach;
  big       encode, decode and decode_fast at indices 0, 1, P-1 and three
            seeded ones, then dual, intersect and subspace_sum of
            consecutive items, at five parameter sets with q above 256
            (16-bit lanes): a prime, an odd extension field and
            characteristic 2, up to q = 65536.

Two trees whose lines are equal give identical indices, matrices, file
bytes and verify verdicts on these inputs.  The grid line takes about a
minute, and so does the stream line.  The proj line takes a few seconds,
and the big line about one, most of it building GF(65536).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from grayspace import cli  # noqa: E402
from grayspace.codec import (CodecParams, decode, decode_fast,  # noqa: E402
                             decode_via_dual, encode, encode_via_dual)
from grayspace.field import field_from_order  # noqa: E402
from grayspace.grassmann_gray import (iter_simple,  # noqa: E402
                                      verify_gray_stream)
from grayspace.linalg import (canonicalize, dual,  # noqa: E402
                              intersect, subspace_sum)
from grayspace.qcombin import gaussian  # noqa: E402

# the last six reach the boundaries of linalg's row arithmetic: primes 5,
# 7 and 127 (the largest whose rows add lane by lane), 131 (the first
# prime whose rows add entry by entry), an odd extension field and GF(256)
LARGE = [(256, 4, 2), (64, 16, 2), (256, 4, 3), (128, 4, 8), (40, 30, 3),
         (128, 32, 2), (256, 64, 2), (64, 4, 9), (32, 3, 128),
         (48, 6, 5), (40, 5, 7), (24, 3, 127), (24, 3, 131), (24, 4, 27),
         (20, 3, 256)]
# 2k > n, so the via-dual codec runs; GF(9) and GF(131) add entry by entry
WIDE = [(256, 252, 2), (128, 124, 3), (64, 60, 4), (48, 45, 9), (32, 29, 131)]
GEN = [(4, 2, 2), (5, 2, 3), (6, 3, 2), (7, 3, 2), (3, 1, 4)]
SEEDS = (0, 1, 2)
STREAM = ([(n, k, q) for q in (2, 3, 4) for n in range(7)
           for k in range(n + 1)]
          + [(n, k, q) for q in (5, 7, 8, 9) for n in range(5)
             for k in range(n + 1)]
          + [(n, 1, q) for q in (5, 7, 8, 9) for n in (5, 6)])
PROJ = [(n, q) for n in (1, 3, 5) for q in (2, 3)] + [(3, 4)]
PROJ_WIDE = [(5, 4), (5, 5), (3, 5), (3, 7), (3, 8), (3, 9)]
# q > 256, where rows sit in 16-bit lanes: a prime just above 256, GF(2^10),
# GF(3^7), the largest prime below 2^16 and GF(2^16)
BIG = [(12, 3, 257), (10, 4, 1024), (8, 3, 2187), (6, 2, 65521),
       (5, 2, 65536)]


def digest(lines):
    h = hashlib.sha256()
    count = 0
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
        count += 1
    return "%s (%d lines)" % (h.hexdigest()[:16], count)


def grid_lines():
    for q in (2, 3, 4, 5, 8):
        ctx = field_from_order(q)
        for n in range(1, 13):
            for k in range(n + 1):
                if gaussian(n, k, q) > 10 ** 4:
                    continue
                params = CodecParams(n, k, ctx)
                for m in range(params.size):
                    sub = encode(params, m)
                    dsub = encode_via_dual(params, m)
                    yield "%d %d %d %d %r %d %d %r %d" % (
                        n, k, q, m, sub.rows, decode(params, sub),
                        decode_fast(params, sub), dsub.rows,
                        decode_via_dual(params, dsub))


def large_lines():
    rng = random.Random(8)
    for n, k, q in LARGE:
        params = CodecParams(n, k, field_from_order(q))
        total = params.size
        picks = [0, 1, 2, total - 2, total - 1]
        picks += [rng.randrange(total) for _ in range(5)]
        for m in picks:
            sub = encode(params, m)
            yield "%d %d %d %d %r %d %d" % (n, k, q, m, sub.rows,
                                            decode_fast(params, sub),
                                            decode(params, sub))


def wide_lines():
    rng = random.Random(12)
    for n, k, q in WIDE:
        params = CodecParams(n, k, field_from_order(q))
        picks = [0, params.size - 1] + [rng.randrange(params.size)
                                        for _ in range(2)]
        items = []
        for m in picks:
            sub = encode_via_dual(params, m)
            items.append(sub)
            yield "%d %d %d %d %r %d" % (n, k, q, m, sub.rows,
                                         decode_via_dual(params, sub))
        # low-dimensional subspaces: the duals of the wide ones, and one
        # spanned by seeded rows with a repeated and a zero row
        low = [dual(sub) for sub in items]
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(3)]
        low.append(canonicalize(rows + rows[:1] + [[0] * n], n, params.ctx))
        for a, b in zip(items + low, items[1:] + low[1:] + items[:1]):
            yield "%r %r %r" % (dual(b).rows, intersect(a, b).rows,
                                canonicalize(a.rows + b.rows, n,
                                             params.ctx).rows)


def stream_lines():
    for n, k, q in STREAM:
        ctx = field_from_order(q)
        items = list(iter_simple(n, k, ctx))
        for sub in items:
            yield "%r %r" % (sub.rows, sub.pivots)
        size = len(items)
        i, j = size // 3, (2 * size) // 3
        swapped = list(items)
        swapped[i], swapped[j] = items[j], items[i]
        repeated = items[:j + 1] + items[j:]
        for copy in items, swapped, repeated:
            rep = verify_gray_stream(iter(copy), n, k, ctx)
            yield "%d %d %d %r %d %d %r %r" % (
                n, k, q, rep.passed, rep.duplicates, rep.adjacency_failures,
                rep.first_nonadjacent, rep.wraparound_ok)


def big_lines():
    rng = random.Random(16)
    for n, k, q in BIG:
        params = CodecParams(n, k, field_from_order(q))
        total = params.size
        picks = [0, 1, total - 1] + [rng.randrange(total) for _ in range(3)]
        items = []
        for m in picks:
            sub = encode(params, m)
            items.append(sub)
            yield "%d %d %d %d %r %d %d" % (n, k, q, m, sub.rows,
                                            decode(params, sub),
                                            decode_fast(params, sub))
        for a, b in zip(items, items[1:]):
            yield "%r %r %r" % (dual(a).rows, intersect(a, b).rows,
                                subspace_sum(a, b).rows)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def write_files(tmp):
    """Every gen/proj file, as (name, path)."""
    runs = []
    for n, k, q in GEN:
        args = ["--n", str(n), "--k", str(k), "--q", str(q)]
        runs.append(("gen-%d-%d-%d" % (n, k, q), ["gen"] + args))
        for s in SEEDS:
            runs.append(("gen-%d-%d-%d-s%d" % (n, k, q, s),
                         ["gen"] + args + ["--seed", str(s)]))
    for n, q in PROJ:
        runs.append(("proj-%d-%d" % (n, q),
                     ["proj", "--n", str(n), "--q", str(q)]))
    return [(name, write_file(tmp / name, argv)) for name, argv in runs]


def write_file(path, argv):
    """Run a gen/proj argv with --out path; return path."""
    code, _, err = run_cli(argv + ["--out", str(path)])
    if code:
        raise SystemExit("%s exited %d: %s" % (path.name, code, err))
    return path


def proj_lines(tmp):
    for n, q in PROJ_WIDE:
        path = write_file(tmp / ("proj-%d-%d" % (n, q)),
                          ["proj", "--n", str(n), "--q", str(q)])
        yield "%d %d %s" % (n, q, hashlib.sha256(path.read_bytes())
                            .hexdigest())


def damaged(text):
    """Three damaged copies: a duplicated block, the last block dropped
    (count fixed), two blocks swapped."""
    header, *blocks = text.rstrip("\n").split("\n\n")
    fields = header.split()
    if len(blocks) < 4:
        return []
    dup = blocks[:2] + [blocks[1]] + blocks[3:]
    dropped = blocks[:-1]
    fields[-2] = str(len(dropped))
    swapped = [blocks[0], blocks[3], blocks[2], blocks[1]] + blocks[4:]
    join = lambda hdr, bl: "\n\n".join([hdr] + bl) + "\n"  # noqa: E731
    return [("dup", join(header, dup)),
            ("drop", join(" ".join(fields), dropped)),
            ("swap", join(header, swapped))]


def file_and_verify_lines(tmp):
    files = write_files(tmp)
    file_lines, verify_lines = [], []
    for name, path in files:
        text = path.read_text()
        file_lines.append("%s %s" % (name, hashlib.sha256(
            path.read_bytes()).hexdigest()))
        cases = [("as-written", path)]
        for tag, body in damaged(text):
            bad = tmp / ("%s-%s" % (name, tag))
            bad.write_text(body)
            cases.append((tag, bad))
        for tag, p in cases:
            code, out, err = run_cli(["verify", str(p)])
            verify_lines.append("%s %s %d %r %r" % (name, tag, code, out,
                                                    err.replace(str(tmp),
                                                                "")))
    return file_lines, verify_lines


def main():
    print("grid  ", digest(grid_lines()))
    print("large ", digest(large_lines()))
    with tempfile.TemporaryDirectory() as tmp:
        file_lines, verify_lines = file_and_verify_lines(Path(tmp))
    print("files ", digest(file_lines))
    print("verify", digest(verify_lines))
    print("wide  ", digest(wide_lines()))
    print("stream", digest(stream_lines()))
    with tempfile.TemporaryDirectory() as tmp:
        print("proj  ", digest(proj_lines(Path(tmp))))
    print("big   ", digest(big_lines()))


if __name__ == "__main__":
    main()
