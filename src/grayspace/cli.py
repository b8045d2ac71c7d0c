"""Command-line interface.

Subcommands: gen, encode, decode, count, proj, nonexist, verify.
Exit codes: 0 success, 1 verification or I/O failure, 2 invalid
parameters, 3 dimension mismatch, 4 file parse failure.

Indices and counts can have more decimal digits than the interpreter's cap
on int <-> str conversion (4300 by default); main lifts the cap while a
command runs, where the interpreter has one, and an --index too long for
any index of the code is out of range before it is converted.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys

from . import codec, grassmann_gray, projective_gray
from .field import parse_field_spec
from .linalg import format_subspace, parse_subspace
from .qcombin import count_lower_bound, gaussian

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARAMS = 2
EXIT_DIMENSION = 3
EXIT_PARSE = 4


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _field(spec: str):
    try:
        return parse_field_spec(spec)
    except (ValueError, TypeError) as exc:
        raise CliError(str(exc), EXIT_PARAMS)


def _check_nk(n, k):
    if n < 0 or not 0 <= k <= n:
        raise CliError("need 0 <= k <= n", EXIT_PARAMS)


def _open_out(path):
    if path is None or path == "-":
        return sys.stdout, False
    try:
        return open(path, "w"), True
    except OSError as exc:
        raise CliError(str(exc), EXIT_FAIL)


def _read_in(path):
    if path is None or path == "-":
        return sys.stdin.read()
    try:
        with open(path) as f:
            return f.read()
    except OSError as exc:
        raise CliError(str(exc), EXIT_FAIL)


def cmd_gen(args) -> int:
    ctx = _field(args.q)
    _check_nk(args.n, args.k)
    out, close = _open_out(args.out)
    try:
        if args.seed is not None:
            source = grassmann_gray.RandomChoiceSource(args.seed)
            seq = grassmann_gray.build_general(args.n, args.k, ctx, source)
            grassmann_gray.write_gray_file(out, seq)
        else:
            total = gaussian(args.n, args.k, ctx.q)
            items = grassmann_gray.iter_simple(args.n, args.k, ctx)
            grassmann_gray.write_gray_stream(out, args.n, args.k, ctx,
                                             items, total)
    finally:
        if close:
            out.close()
    return EXIT_OK


def _index(text, size):
    """int(text); CliError, before converting, if text is no integer or has
    more digits than an index below size (at most bit_length*0.30103+1)."""
    if not re.fullmatch(r"\s*[+-]?\d+(_\d+)*\s*", text):
        raise CliError("index is not an integer: %.40r" % text, EXIT_PARAMS)
    digits = text.strip().lstrip("+-").replace("_", "").lstrip("0")
    if len(digits) > (size - 1).bit_length() * 30103 // 100000 + 1:
        raise CliError("index out of range [0, %d)" % size, EXIT_PARAMS)
    return int(text)


def cmd_encode(args) -> int:
    ctx = _field(args.q)
    _check_nk(args.n, args.k)
    params = codec.CodecParams(args.n, args.k, ctx)
    m = _index(args.index, params.size)
    try:
        fn = codec.encode_via_dual if args.via_dual else codec.encode
        sub = fn(params, m)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_PARAMS)
    text = format_subspace(sub)
    if args.json:
        print(json.dumps({"n": args.n, "k": args.k, "q": ctx.q,
                          "index": str(m), "matrix": [list(r) for r in sub.rows]}))
    else:
        print(text)
    return EXIT_OK


def cmd_decode(args) -> int:
    ctx = _field(args.q)
    _check_nk(args.n, args.k)
    params = codec.CodecParams(args.n, args.k, ctx)
    try:
        sub, was_canonical = parse_subspace(_read_in(args.input), ctx)
    except ValueError as exc:
        raise CliError("malformed matrix: %s" % exc, EXIT_PARAMS)
    if not was_canonical:
        print("warning: input was not canonical; canonicalized",
              file=sys.stderr)
    if sub.n != args.n or sub.k != args.k:
        raise CliError("matrix is %dx%d ambient %d, expected k=%d n=%d"
                       % (sub.k, sub.n, sub.n, args.k, args.n),
                       EXIT_DIMENSION)
    if args.via_dual:
        m = codec.decode_via_dual(params, sub)
    else:
        m = codec.decode_fast(params, sub)
    if args.json:
        print(json.dumps({"n": args.n, "k": args.k, "q": ctx.q,
                          "index": str(m)}))
    else:
        print(m)
    return EXIT_OK


def cmd_count(args) -> int:
    ctx = _field(args.q)
    _check_nk(args.n, args.k)
    if args.lower_bound:
        value = count_lower_bound(args.n, args.k, ctx.q)
    else:
        value = gaussian(args.n, args.k, ctx.q)
    if args.json:
        print(json.dumps({"n": args.n, "k": args.k, "q": ctx.q,
                          "lower_bound": bool(args.lower_bound),
                          "value": str(value)}))
    else:
        print(value)
    return EXIT_OK


def cmd_proj(args) -> int:
    ctx = _field(args.q)
    build = {1: projective_gray.build_full_n1,
             3: projective_gray.build_full_n3,
             5: projective_gray.build_full_n5}.get(args.n)
    if build is None:
        raise CliError("unsupported n=%d: full subspace Gray codes are only "
                       "known for n in {1, 3, 5}; other odd n are open and "
                       "even n have none" % args.n, EXIT_PARAMS)
    try:
        seq = build(ctx)
    except ValueError as exc:    # GF(q^n) above the field size bound
        raise CliError(str(exc), EXIT_PARAMS)
    out, close = _open_out(args.out)
    try:
        grassmann_gray.write_gray_file(out, seq)
    finally:
        if close:
            out.close()
    return EXIT_OK


def cmd_nonexist(args) -> int:
    ctx = _field(args.q)
    try:
        report = projective_gray.nonexistence_certificate(args.n, ctx.q)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_PARAMS)
    if args.json:
        print(json.dumps({"n": report.n, "q": report.q,
                          "neighbors": str(report.neighbor_count),
                          "middle": str(report.middle_count),
                          "deficit": str(report.deficit),
                          "cyclic_excluded": report.cyclic_excluded,
                          "noncyclic_excluded": report.noncyclic_excluded}))
    else:
        print("%d < %d deficit=%d" % (report.neighbor_count,
                                      report.middle_count, report.deficit))
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        seq = grassmann_gray.read_gray_file(io.StringIO(_read_in(args.file)))
        report = grassmann_gray.verify_gray(seq)
    except ValueError as exc:
        raise CliError("parse failure: %s" % exc, EXIT_PARSE)
    if report.passed:
        print("PASS: %d items" % report.size)
        return EXIT_OK
    for failure in report.failures:
        print("FAIL: %s" % failure)
    return EXIT_FAIL


def build_parser():
    parser = argparse.ArgumentParser(
        prog="grayspace",
        description="Gray codes and enumerative coding for vector spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_nkq(p, with_k=True):
        p.add_argument("--n", type=int, required=True)
        if with_k:
            p.add_argument("--k", type=int, required=True)
        p.add_argument("--q", required=True,
                       help="field size, as 'q' or 'p^m'")

    p = sub.add_parser("gen", help="write the simple Gray code as a GRAY file")
    add_nkq(p)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None,
                   help="use randomized construction choices instead")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("encode", help="index to subspace")
    add_nkq(p)
    p.add_argument("--index", required=True)
    p.add_argument("--via-dual", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="subspace to index")
    add_nkq(p)
    p.add_argument("--input", default=None,
                   help="subspace file (default stdin)")
    p.add_argument("--fast", action="store_true",
                   help="accepted for compatibility; decode always takes "
                        "the fast path")
    p.add_argument("--via-dual", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("count", help="Gaussian coefficient or code count bound")
    add_nkq(p)
    p.add_argument("--lower-bound", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("proj", help="full subspace Gray code, n in {1,3,5}")
    add_nkq(p, with_k=False)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_proj)

    p = sub.add_parser("nonexist", help="even-n nonexistence certificate")
    add_nkq(p, with_k=False)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_nonexist)

    p = sub.add_parser("verify", help="verify a GRAY or PROJ file")
    p.add_argument("file", nargs="?", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        return EXIT_FAIL
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)


if __name__ == "__main__":
    sys.exit(main())
