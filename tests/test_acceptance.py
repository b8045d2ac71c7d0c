"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single
"criterion N: PASS" line on success (visible with pytest -s or in
failure output). Runtime bounds are asserted where they are part of
the criterion.
"""

import itertools
import random
import statistics
import time
from math import prod

from grayspace.codec import CodecParams, decode, decode_fast, encode
from grayspace.field import extend_field, field_from_order
from grayspace import linalg as L
from grayspace.grassmann_gray import (GraySequence, ScriptedChoiceSource,
                                      build_general, build_simple, dual_code,
                                      iter_simple, verify_gray,
                                      verify_gray_stream)
from grayspace.projective_gray import (build_full_n1, build_full_n3,
                                       build_full_n5, expand_path,
                                       fixture_code_2_2,
                                       nonexistence_certificate,
                                       search_necklace_path)
from grayspace.qcombin import count_lower_bound, gaussian


def report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print("criterion %d: %s%s" % (num, status, " " + detail if detail else ""))
    assert ok, detail


def test_criterion_1_gaussian_values():
    start = time.monotonic()
    ok = gaussian(4, 2, 2) == 35 and gaussian(2, 1, 3) == 4
    for q in (2, 3, 4, 5, 8):
        for n in range(13):
            for k in range(n + 1):
                g = gaussian(n, k, q)
                ok = ok and g == gaussian(n, n - k, q)
                if 0 < k < n:
                    ok = ok and g == (gaussian(n - 1, k, q)
                                      + q ** (n - k) * gaussian(n - 1, k - 1, q))
                # independent oracle: quotient of ordered basis counts
                num = prod(q ** n - q ** i for i in range(k))
                den = prod(q ** k - q ** i for i in range(k))
                ok = ok and g == num // den
    # brute-force enumeration where the whole space is small; cells whose
    # subspace count alone exceeds 10^4 (e.g. middle k at GF(2)^10) are
    # covered by the closed-form oracle above instead
    for q in (2, 3, 4, 5, 8):
        ctx = field_from_order(q)
        n = 1
        while q ** (n + 1) <= 1024:
            n += 1
        for nn in range(1, n + 1):
            for k in range(nn + 1):
                if gaussian(nn, k, q) > 10 ** 4:
                    continue
                count = sum(1 for _ in L.enumerate_subspaces(nn, k, ctx))
                ok = ok and count == gaussian(nn, k, q)
    elapsed = time.monotonic() - start
    report(1, ok and elapsed < 10.0, "(%.2fs)" % elapsed)


def test_criterion_2_gray_construction_grid():
    start = time.monotonic()
    ok = True
    for q in (2, 3, 4):
        ctx = field_from_order(q)
        for n in range(7):
            for k in range(n + 1):
                rep = verify_gray_stream(iter_simple(n, k, ctx), n, k, ctx)
                ok = ok and rep.passed and rep.size == gaussian(n, k, q)
                if not rep.passed:
                    print("  grid failure at", (n, k, q), rep.failures)
    elapsed = time.monotonic() - start
    report(2, ok and elapsed < 60.0, "(%.1fs)" % elapsed)


def codec_parameter_sets(limit=10 ** 4):
    for q in (2, 3, 4, 5, 8):
        for n in range(1, 13):
            for k in range(n + 1):
                if gaussian(n, k, q) <= limit:
                    yield n, k, q


def test_criterion_3_codec_bijectivity():
    start = time.monotonic()
    ok = True
    for n, k, q in codec_parameter_sets():
        ctx = field_from_order(q)
        params = CodecParams(n, k, ctx)
        for m, item in enumerate(iter_simple(n, k, ctx)):
            good = (encode(params, m) == item
                    and decode(params, item) == m
                    and decode_fast(params, item) == m)
            if not good:
                print("  codec failure at", (n, k, q, m))
                ok = False
                break
    elapsed = time.monotonic() - start
    report(3, ok and elapsed < 120.0, "(%.1fs)" % elapsed)


def test_criterion_4_duality():
    ok = True
    for n, k, q in [(2, 1, 2), (3, 1, 2), (4, 2, 2), (4, 1, 3),
                    (5, 2, 2), (4, 2, 4), (3, 2, 3)]:
        ctx = field_from_order(q)
        seq = build_simple(n, k, ctx)
        d = dual_code(seq)
        rep = verify_gray(d)
        ok = (ok and rep.passed and d.k == n - k
              and len(d.items) == gaussian(n, n - k, q))
    report(4, ok)


def test_criterion_5_projective_constructions():
    start = time.monotonic()
    ok = True

    seq = build_full_n1(field_from_order(2))
    ok = ok and len(seq) == 2 and verify_gray(seq).passed

    for q in (2, 3, 4):
        ctx = field_from_order(q)
        mid = expand_path(search_necklace_path(extend_field(ctx, 3)))
        ok = ok and len(mid) == 2 * (q * q + q + 1)
        seq = build_full_n3(ctx)
        rep = verify_gray(seq)
        ok = ok and rep.passed and rep.optimal
        ok = ok and len(seq) == 2 * q * q + 2 * q + 4

    for q in (2, 3):
        ctx = field_from_order(q)
        seq = build_full_n5(ctx)
        rep = verify_gray(seq)
        ok = ok and rep.passed and rep.optimal
        ok = ok and len(seq) == sum(gaussian(5, k, q) for k in range(6))
        if q == 2:
            ok = ok and len(seq) == 374
    elapsed = time.monotonic() - start
    report(5, ok and elapsed < 300.0, "(%.1fs)" % elapsed)


def test_criterion_6_nonexistence_certificates():
    ok = True
    for n in range(2, 13, 2):
        for q in range(2, 10):
            r = nonexistence_certificate(n, q)
            ok = ok and r.ratio_identity_ok and r.cyclic_excluded
            if (n, q) == (2, 2):
                ok = ok and r.deficit == 1
            else:
                ok = ok and r.deficit >= 2
    fixture = fixture_code_2_2()
    rep = verify_gray(fixture)
    ok = ok and rep.passed and rep.optimal and not fixture.cyclic
    report(6, ok)


def test_criterion_7_count_lower_bound():
    ok = True
    for n in range(7):
        ok = ok and count_lower_bound(n, 0, 2) == 1
        ok = ok and count_lower_bound(n, n, 2) == 1
    bound = count_lower_bound(3, 1, 2)
    ctx = field_from_order(2)
    seen = set()
    for low_order in itertools.permutations(range(2)):
        for top_order in itertools.permutations(range(4)):
            for j in range(3):
                for ell in range(3):
                    script = {(2, 1): {"orders": [list(low_order)]},
                              (3, 1): {"orders": [list(top_order)],
                                       "j": j, "ell": ell}}
                    seq = build_general(3, 1, ctx,
                                        ScriptedChoiceSource(script))
                    ok = ok and verify_gray(seq).passed
                    seen.add(seq.items)
    ok = ok and len(seen) >= bound
    report(7, ok, "(%d distinct codes, bound %d)" % (len(seen), bound))


def bench_decode(ns, samples, reps=5):
    """Median decode and decode_fast seconds at (n,4,2), one list entry
    per n.

    The n are timed round-robin, one sample of each in turn, so a change
    of machine speed during the run hits every n alike.  Each n draws its
    samples from its own random.Random(n).
    """
    ctx = field_from_order(2)
    params = [CodecParams(n, 4, ctx) for n in ns]
    rngs = [random.Random(n) for n in ns]

    def timed(fn, p, sub):
        # best of a few repetitions per sample to suppress timer noise
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            fn(p, sub)
            best = min(best, time.perf_counter() - t0)
        return best

    slow, fast = [[] for _ in ns], [[] for _ in ns]
    for _ in range(samples):
        for p, rng, s, f in zip(params, rngs, slow, fast):
            sub = encode(p, rng.randrange(p.size))
            assert decode(p, sub) == decode_fast(p, sub)
            s.append(timed(decode, p, sub))
            f.append(timed(decode_fast, p, sub))
    return ([statistics.median(s) for s in slow],
            [statistics.median(f) for f in fast])


def test_criterion_8_performance_trends():
    start = time.monotonic()
    medians, _ = bench_decode((16, 32, 64, 128), 20)
    monotone = all(a <= b for a, b in zip(medians, medians[1:]))
    (slow256,), (fast256,) = bench_decode((256,), 20)
    elapsed = time.monotonic() - start
    ok = monotone and fast256 <= slow256 and elapsed < 60.0
    report(8, ok, "(medians %s, n=256 %.4fs vs %.4fs)"
           % (["%.5f" % m for m in medians], slow256, fast256))
