import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from grayspace.codec import (CodecParams, _decode_fast, _encode, decode,
                             decode_fast, decode_via_dual, encode,
                             encode_via_dual)
from grayspace.field import field_from_order, make_field
from grayspace import linalg as L
from grayspace.grassmann_gray import (GraySequence, _closing_class,
                                      closing_class_index, iter_simple,
                                      verify_gray)
from grayspace.qcombin import gaussian
from oracles import last_nonzero

F2 = make_field(2, 1)


def test_params_validation():
    with pytest.raises(ValueError):
        CodecParams(3, 4, F2)
    p = CodecParams(4, 2, F2)
    assert p.size == 35


def test_non_int_sizes_raise_and_leave_the_gaussian_cache_alone():
    # 6.0 == 6 and hashes alike, so an untyped cache would hand a float's
    # entry to the int call and the int's to the float call
    for args in [(6.0, 2, 2), (6.0, 3, 2), (6, 2.0, 2), (6, 2, 2.0)]:
        with pytest.raises(TypeError):
            gaussian(*args)
    for value in (gaussian(6, 2, 2), CodecParams(7, 3, F2).size):
        assert type(value) is int
    assert gaussian(6, 2, 2) == 651
    for n, k in [(4.0, 2), (4, 2.0), (4, True)]:
        with pytest.raises(TypeError):
            CodecParams(n, k, F2)
    params = CodecParams(7, 3, F2)
    for m in (0, 5, params.size - 1):
        assert decode_fast(params, encode(params, m)) == m


def test_encode_zero_is_simple():
    for (n, k, q) in [(4, 2, 2), (5, 3, 3), (3, 1, 4), (6, 2, 2)]:
        ctx = field_from_order(q)
        assert encode(CodecParams(n, k, ctx), 0) == L.simple_subspace(n, k,
                                                                      ctx)


def test_encode_range_check():
    p = CodecParams(4, 2, F2)
    with pytest.raises(ValueError):
        encode(p, 35)
    with pytest.raises(ValueError):
        encode(p, -1)


def test_encode_matches_build_simple():
    for (n, k, q) in [(2, 1, 2), (4, 2, 2), (5, 2, 2), (5, 3, 2),
                      (4, 2, 3), (3, 2, 4), (4, 3, 2)]:
        ctx = field_from_order(q)
        params = CodecParams(n, k, ctx)
        for m, item in enumerate(iter_simple(n, k, ctx)):
            assert encode(params, m) == item, (n, k, q, m)


def test_round_trip_and_fast_agree():
    for (n, k, q) in [(4, 2, 2), (5, 2, 2), (5, 3, 3), (4, 2, 4), (6, 3, 2)]:
        ctx = field_from_order(q)
        params = CodecParams(n, k, ctx)
        for m, item in enumerate(iter_simple(n, k, ctx)):
            assert decode(params, item) == m
            assert decode_fast(params, item) == m


def test_decode_covers_all_subspaces():
    # brute-force enumeration decodes to exactly 0..P-1
    for (n, k, q) in [(4, 2, 2), (3, 2, 3), (4, 1, 3)]:
        ctx = field_from_order(q)
        params = CodecParams(n, k, ctx)
        values = {decode(params, sub)
                  for sub in L.enumerate_subspaces(n, k, ctx)}
        assert values == set(range(gaussian(n, k, q)))


def test_decode_rejects_wrong_dimensions():
    params = CodecParams(4, 2, F2)
    with pytest.raises(ValueError):
        decode(params, L.simple_subspace(4, 3, F2))
    with pytest.raises(ValueError):
        decode(params, L.simple_subspace(3, 2, F2))


def test_decode_rejects_rank_deficient_rows():
    # hand-built matrices that are not a rank-k echelon basis: a zero row,
    # a repeated row, leading columns out of order; and echelon bases whose
    # extending row is nonzero on a base pivot column or does not end in 1
    F3 = field_from_order(3)
    cases = [(CodecParams(4, 2, F2), ((1, 0, 0, 1), (0, 0, 0, 0))),
             (CodecParams(4, 2, F2), ((1, 0, 0, 0), (1, 0, 0, 0))),
             (CodecParams(4, 2, F2), ((0, 1, 0, 0), (1, 0, 0, 0))),
             (CodecParams(5, 2, F3), ((1, 2, 2, 0, 1), (0, 1, 1, 0, 0))),
             (CodecParams(3, 1, F3), ((1, 0, 2),))]
    for params, rows in cases:
        W = L.CanonicalSubspace(params.ctx, params.n, rows,
                                tuple(range(len(rows))))
        for fn in (decode, decode_fast, decode_via_dual):
            with pytest.raises(ValueError):
                fn(params, W)


def test_decode_rejects_entries_outside_the_field():
    # rows of the wrong length and entries outside range(q), which the
    # decoders would otherwise read as digits, pack or index past
    F3 = field_from_order(3)
    cases = [(CodecParams(4, 2, F2), ((1, 0, 0, 0), (0, 1, 2, 1)),
              "entries must lie in range"),
             (CodecParams(4, 2, F3), ((1, 0, 0, 0), (0, 1, 5, 1)),
              "entries must lie in range"),
             (CodecParams(4, 2, F2), ((1, 0, 0, 0), (0, 1, 1)),
              "rows must have length"),
             (CodecParams(4, 2, F2), ((1, 0, 0, 0), (0, 1, 300, 1)),
              "entries must lie in range"),
             (CodecParams(4, 2, F2), ((1, 0, 0, 0), (0, 1, -1, 1)),
              "entries must lie in range")]
    for params, rows, message in cases:
        W = L.CanonicalSubspace(params.ctx, params.n, rows,
                                tuple(range(len(rows))))
        for fn in (decode, decode_fast, decode_via_dual):
            with pytest.raises(ValueError, match=message):
                fn(params, W)


def test_decode_rejects_entries_that_are_not_ints():
    # 0.5 lies in [0, q) but is no element index: the decoders would read
    # it as a digit and return q + 0.5
    for q in (3, 257):
        params = CodecParams(2, 1, field_from_order(q))
        W = L.CanonicalSubspace(params.ctx, 2, ((0.5, 1),), (0,))
        for fn in (decode, decode_fast, decode_via_dual):
            with pytest.raises(TypeError, match="entries must be ints"):
                fn(params, W)


def _echelon_variants(sub):
    """Every basis T*rows of sub with T upper triangular and invertible.

    These row operations keep each row's leading column, so every variant
    is a row echelon basis of sub with the same pivots.
    """
    ctx, k = sub.ctx, sub.k
    scales = [x for x in range(ctx.q) if x]
    above = [(i, j) for i in range(k) for j in range(i + 1, k)]
    for diag in itertools.product(scales, repeat=k):
        for coeffs in itertools.product(range(ctx.q), repeat=len(above)):
            rows = [[ctx.mul(d, x) for x in r]
                    for d, r in zip(diag, sub.rows)]
            for (i, j), f in zip(above, coeffs):
                if f:
                    rows[i] = [ctx.add(x, ctx.mul(f, y))
                               for x, y in zip(rows[i], sub.rows[j])]
            yield L.CanonicalSubspace(ctx, sub.n, tuple(map(tuple, rows)),
                                      sub.pivots)


def test_decode_of_echelon_variants_is_canonical_or_rejected():
    # every echelon basis of every subspace either raises ValueError or
    # decodes to the index of its canonical matrix, with every decoder
    accepted = 0
    for (n, k, q) in [(5, 2, 3), (4, 2, 4), (5, 3, 2), (3, 2, 4), (4, 1, 4)]:
        ctx = field_from_order(q)
        params = CodecParams(n, k, ctx)
        for m, sub in enumerate(iter_simple(n, k, ctx)):
            want = {decode: m, decode_fast: m,
                    decode_via_dual: decode_via_dual(params, sub)}
            for W in _echelon_variants(sub):
                for fn, index in want.items():
                    try:
                        got = fn(params, W)
                    except ValueError:
                        continue
                    assert got == index, (fn.__name__, n, k, q, W.rows)
                    accepted += W != sub
    # some non-canonical bases decode (those that differ from the
    # canonical matrix only where no digit is read)
    assert accepted > 0


def test_encode_rejects_non_int_index():
    for bad in (3.0, True, False, "3"):
        with pytest.raises(TypeError):
            encode(CodecParams(4, 2, F2), bad)
        with pytest.raises(TypeError):
            encode_via_dual(CodecParams(4, 3, F2), bad)


def test_monotone_structure():
    # indices below the (n-1,k) count stay inside the hyperplane
    for (n, k, q) in [(4, 2, 2), (5, 2, 3)]:
        ctx = field_from_order(q)
        params = CodecParams(n, k, ctx)
        split = gaussian(n - 1, k, q)
        for m in range(gaussian(n, k, q)):
            inside = all(r[-1] == 0 for r in encode(params, m).rows)
            assert inside == (m < split)


def test_gray_adjacency_of_encode_order():
    for (n, k, q) in [(4, 2, 2), (4, 2, 3)]:
        ctx = field_from_order(q)
        params = CodecParams(n, k, ctx)
        total = gaussian(n, k, q)
        prev = encode(params, total - 1)
        for m in range(total):
            cur = encode(params, m)
            assert L.grassmann_adjacent(prev, cur)
            prev = cur


def test_large_parameter_round_trip():
    rng = random.Random(6)
    params = CodecParams(64, 4, F2)
    total = params.size
    for _ in range(20):
        m = rng.randrange(total)
        sub = encode(params, m)
        assert decode(params, sub) == m
        assert decode_fast(params, sub) == m


def test_decode_fast_matches_decode_at_large_parameters():
    # sizes the criterion-3 grid never reaches, code boundaries included;
    # at deep k the reference decode's successor encodes share their levels
    rng = random.Random(11)
    for (n, k, q) in [(256, 4, 2), (64, 16, 2), (256, 4, 3), (128, 4, 8),
                      (256, 64, 2), (512, 128, 2), (96, 24, 3)]:
        params = CodecParams(n, k, field_from_order(q))
        total = params.size
        for m in [0, 1, total - 2, total - 1] + [rng.randrange(total)
                                                 for _ in range(4)]:
            sub = encode(params, m)
            assert decode_fast(params, sub) == decode(params, sub) == m
            assert L.grassmann_adjacent(sub, encode(params, (m + 1) % total))


def test_round_trip_deeper_than_the_stack_limit():
    # 1050 extension levels: encode and decode_fast loop over the levels,
    # so their stack depth does not grow with k
    params = CodecParams(1100, 1050, F2)
    total = params.size
    for m in (0, 1, total - 1, random.Random(12).randrange(total)):
        assert decode_fast(params, encode(params, m)) == m


def test_reference_decode_deeper_than_the_stack_limit():
    # 1000 extension levels: the reference decode loops over its levels too
    params = CodecParams(1010, 1000, F2)
    m = random.Random(25).randrange(params.size)
    sub = encode(params, m)
    assert decode(params, sub) == decode_fast(params, sub) == m


def _spy_on_subspaces(monkeypatch):
    """A list that gains an entry for every CanonicalSubspace made, by
    the codec or by linalg, until monkeypatch undoes the spy."""
    import grayspace.codec as codec_module
    made = []

    class Spy(L.CanonicalSubspace):
        def __init__(self, *args):
            made.append(args[2])
            super().__init__(*args)
    for module in (codec_module, L):
        monkeypatch.setattr(module, "CanonicalSubspace", Spy)
    return made


def _spy_cases():
    cases = []
    for (n, k, q) in [(128, 32, 2), (256, 4, 3), (12, 5, 9), (9, 4, 257)]:
        params = CodecParams(n, k, field_from_order(q))
        rng = random.Random(26)
        for m in [0, 1, params.size - 1] + [rng.randrange(params.size)
                                            for _ in range(4)]:
            cases.append((params, m, encode(params, m)))
    return cases


def test_decode_fast_builds_no_level(monkeypatch):
    # each level's base is the input's rows below the level, which the
    # walk state gathers in place (decode_fast inserts them, the reference
    # pops and puts them back), so the decoders build no subspace but the
    # input's re-wrap in _check_input
    cases = _spy_cases()
    made = _spy_on_subspaces(monkeypatch)
    for params, m, sub in cases:
        for fn in (decode_fast, decode):
            made.clear()
            assert fn(params, sub) == m
            assert made == [sub.rows], (fn.__name__, params, m)


def test_encode_builds_one_canonical_subspace(monkeypatch):
    # the walk state goes from level to level in place; encode wraps it
    # once, at the end
    cases = _spy_cases()
    made = _spy_on_subspaces(monkeypatch)
    for params, m, sub in cases:
        made.clear()
        assert encode(params, m).rows == sub.rows
        assert made == [sub.rows], (params, m)


def test_reference_decode_keeps_no_state_between_calls():
    # codecs of different n and k over one field, and one of the same n and
    # k over another field, decoded alternately at the same indices, so
    # their levels have equal (n, k, m) keys; and consecutive indices,
    # whose successor encodes walk the same levels: each decode starts
    # afresh
    f3 = field_from_order(3)
    codecs = [CodecParams(40, 10, f3), CodecParams(33, 7, f3),
              CodecParams(40, 10, F2)]
    rng = random.Random(23)
    cases = []
    for m in [0, 1] + [rng.randrange(gaussian(33, 7, 2) - 1)
                       for _ in range(4)]:
        for params in codecs:
            cases += [(params, m, encode(params, m)),
                      (params, m + 1, encode(params, m + 1))]
    for params, m, sub in cases + cases[::-1]:
        assert decode(params, sub) == m


def _extension_levels(sub, k):
    """The levels of sub's canonical matrix above its simple subspace: a
    level's row, in descending order of top, has top > the level's k."""
    tops = sorted((last_nonzero(r) + 1 for r in sub.rows), reverse=True)
    return next((d for d, top in enumerate(tops) if top == k - d), k)


def test_reference_decode_builds_o_k_levels(monkeypatch):
    # each successor encode starts from a snapshot of the decode's own base
    # and closing row, or from a level an earlier encode of the same decode
    # built, and builds one level, which it puts into the decode's built;
    # re-encoding every successor in full builds about 16 levels per level,
    # and rebuilding each successor's base about 2
    import grayspace.codec as codec_module
    levels_built = []
    real = codec_module._encode

    def counted(n, k, q, ctx, m, width_n=None, built=None):
        before = len(built or ())
        out = real(n, k, q, ctx, m, width_n, built)
        levels_built.append(len(built or ()) - before)
        return out
    monkeypatch.setattr(codec_module, "_encode", counted)
    params = CodecParams(128, 32, F2)
    rng = random.Random(24)
    for m in [rng.randrange(params.size) for _ in range(3)]:
        sub = encode(params, m)
        levels = _extension_levels(sub, params.k)
        assert levels > 16
        levels_built.clear()
        assert decode(params, sub) == m
        assert 0 < sum(levels_built) <= levels, (levels_built, levels)


def test_entry_wise_fields_round_trip():
    # the fields whose rows add entry by entry, which no benchmark cell
    # reaches, take the same walk: _eliminate unpacks their vectors, and
    # q = 257 has 16-bit lanes; code boundaries and seeded indices
    rng = random.Random(27)
    for (n, k, q) in [(12, 5, 9), (10, 5, 27), (9, 4, 131), (9, 4, 257)]:
        params = CodecParams(n, k, field_from_order(q))
        total, deepest = params.size, 0
        for m in [0, 1, total - 2, total - 1] + [rng.randrange(total)
                                                 for _ in range(6)]:
            W = encode(params, m)
            C = L.canonicalize(W.rows, n, params.ctx)
            assert (W.rows, W.pivots, W.packed, W.pivot_mask) == (
                C.rows, C.pivots, C.packed, C.pivot_mask), (q, m)
            assert decode(params, W) == decode_fast(params, W) == m, (q, m)
            deepest = max(deepest, _extension_levels(W, k))
        assert deepest >= 4, q


def test_round_trip_at_prime_field_above_256():
    # the entry 256 does not fit in a byte, and rows ending in 0 miss the
    # last-entry shortcut of the last-nonzero scan
    ctx = field_from_order(257)
    params = CodecParams(4, 2, ctx)
    for rows in [((256, 1, 0, 0), (0, 0, 1, 0)),
                 ((1, 0, 0, 0), (0, 256, 1, 0)),
                 ((0, 256, 1, 0), (0, 0, 0, 1)),
                 ((256, 1, 0, 0), (0, 0, 256, 1)),
                 ((256, 0, 1, 0), (0, 1, 0, 1))]:
        W = L.canonicalize(rows, 4, ctx)
        assert W.rows == rows
        m = decode(params, W)
        assert decode_fast(params, W) == m
        assert encode(params, m) == W


def test_decode_fast_successor_direction():
    # the direction decode_fast and encode read off an item's block position
    # spans the next item modulo the item, wraparound pair included
    for (n, k, q) in [(4, 2, 2), (5, 2, 2), (5, 3, 2), (6, 2, 2), (4, 2, 3),
                      (4, 1, 3), (3, 2, 4), (4, 2, 4)]:
        ctx = field_from_order(q)
        items = list(iter_simple(n, k, ctx))
        lanes = L._lanes(ctx)
        for m, (cur, nxt) in enumerate(zip(items, items[1:] + items[:1])):
            index, x = _decode_fast(cur)
            state, y = _encode(n, k, q, ctx, m)
            walk = (list(cur.pivots), list(L._packed_rows(cur)),
                    L._pivot_mask(cur))
            assert index == m and state == walk
            for direction in (x(), y()):
                assert (_closing_class(lanes, *walk, direction, n)
                        == closing_class_index(cur, nxt)[0]), (n, k, q, m)


def test_via_dual():
    params = CodecParams(4, 3, F2)
    items = [encode_via_dual(params, m) for m in range(15)]
    assert all(decode_via_dual(params, it) == m
               for m, it in enumerate(items))
    assert decode_via_dual(params, L.dual(L.simple_subspace(4, 1, F2))) == 0
    seq = GraySequence(4, 3, F2, tuple(items), True)
    assert verify_gray(seq).passed
    # below the midpoint it falls back to the primal codec
    p2 = CodecParams(4, 2, F2)
    assert encode_via_dual(p2, 7) == encode(p2, 7)


CODEC_FIELDS = [field_from_order(q) for q in (2, 3, 4, 8)]


@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(st.data())
def test_via_dual_round_trip_property(data):
    # 2k > n, so every draw takes the dual path: encode at (n, n-k), dual,
    # and back through dual and decode_fast
    n = data.draw(st.integers(2, 96))
    k = data.draw(st.integers(n // 2 + 1, n))
    for ctx in CODEC_FIELDS:
        params = CodecParams(n, k, ctx)
        m = data.draw(st.integers(0, params.size - 1))
        W = encode_via_dual(params, m)
        assert W.k == k and W == L.canonicalize(W.rows, n, ctx)
        assert decode_via_dual(params, W) == m


def test_via_dual_round_trip_at_n_512():
    # encode at (512, 4), the complement of 508 rows, and back: dual runs
    # on packed rows over GF(2) and GF(4)
    rng = random.Random(512)
    for q, seeded in ((2, 3), (4, 2)):
        params = CodecParams(512, 508, field_from_order(q))
        picks = [0, params.size - 1]
        picks += [rng.randrange(params.size) for _ in range(seeded)]
        for m in picks:
            W = encode_via_dual(params, m)
            assert W.k == 508 and decode_via_dual(params, W) == m


@st.composite
def codec_cases(draw):
    ctx = draw(st.sampled_from(CODEC_FIELDS))
    n = draw(st.integers(1, 256))
    k = draw(st.integers(0, min(n, 16)))
    params = CodecParams(n, k, ctx)
    return params, draw(st.integers(0, params.size - 1))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(codec_cases())
def test_round_trip_property(case):
    params, m = case
    sub = encode(params, m)
    assert decode(params, sub) == decode_fast(params, sub) == m
    if params.size > 1:
        assert L.grassmann_adjacent(sub,
                                    encode(params, (m + 1) % params.size))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(codec_cases(), st.randoms(use_true_random=False))
def test_uniform_random_subspace_round_trip(case, rng):
    # a uniform random full-rank k x n matrix spans a uniform random
    # k-space, so this decodes arbitrary subspaces, not encoder outputs
    params, _ = case
    n, k, ctx = params.n, params.k, params.ctx
    while True:
        W = L.canonicalize([[rng.randrange(ctx.q) for _ in range(n)]
                            for _ in range(k)], n, ctx)
        if W.k == k:
            break
    assert encode(params, decode_fast(params, W)) == W
