import random
from functools import reduce
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from grayspace import codec, grassmann_gray
from grayspace.field import field_from_order, make_field
from grayspace import linalg as L
from grayspace.qcombin import gaussian

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F5 = make_field(5, 1)


def random_rows(rng, n, k, ctx):
    while True:
        rows = [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(k)]
        r, piv = L.rref([list(x) for x in rows], n, ctx)
        if len(r) == k:
            return rows


def test_rref_examples():
    rows, pivots = L.rref([[0, 1, 1], [1, 1, 0]], 3, F2)
    assert rows == [(1, 0, 1), (0, 1, 1)]
    assert pivots == (0, 1)
    rows, pivots = L.rref([[2, 4], [1, 2]], 2, F5)
    assert rows == [(1, 2)]
    assert pivots == (0,)


def test_rref_is_rref():
    rng = random.Random(11)
    for _ in range(100):
        ctx = random.Random(rng.random()).choice([F2, F3, F5])
        n = rng.randrange(1, 6)
        k = rng.randrange(0, n + 1)
        rows = [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(k)]
        assert L.rref(rows, n, ctx) == _column_rref(rows, n, ctx)


def test_tau_worked_example():
    # rref matrix over GF(5) and its known canonical transform
    m = ((1, 0, 3, 0, 1), (0, 1, 2, 0, 4), (0, 0, 0, 1, 2))
    t = L.canonicalize(m, 5, F5).rows
    assert t == ((1, 1, 0, 0, 0), (0, 2, 4, 1, 0), (0, 0, 0, 3, 1))


def test_tau_preserves_span_and_pivots():
    rng = random.Random(5)
    for _ in range(60):
        ctx = [F2, F3, F5][rng.randrange(3)]
        n = rng.randrange(1, 6)
        k = rng.randrange(1, n + 1)
        rows = [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(k)]
        red, piv = L.rref(rows, n, ctx)
        if not red:
            continue
        t = L.canonicalize(rows, n, ctx)
        t_red, t_piv = L.rref([list(r) for r in t.rows], n, ctx)
        assert tuple(tuple(r) for r in t_red) == tuple(tuple(r) for r in red)
        assert t_piv == piv == t.pivots


def test_canonicalize_wider_than_the_stack_limit():
    # tau walks the columns in one loop, so its depth does not grow with n
    n = 1100
    simple = L.simple_subspace(n, 2, F2)
    assert L.canonicalize(simple.rows, n, F2) == simple
    assert L.canonicalize(simple.rows[::-1], n, F2) == simple


def test_canonicalize_basis_invariant():
    rng = random.Random(3)
    for _ in range(60):
        ctx = [F2, F3][rng.randrange(2)]
        n = 4
        k = rng.randrange(1, 4)
        rows = random_rows(rng, n, k, ctx)
        a = L.canonicalize(rows, n, ctx)
        # mix rows by an invertible transformation: swap, scale, add
        mixed = [list(r) for r in rows]
        rng.shuffle(mixed)
        f = rng.randrange(1, ctx.q)
        mixed[0] = [ctx.mul(f, x) for x in mixed[0]]
        if k > 1:
            mixed[1] = [ctx.add(x, y) for x, y in zip(mixed[1], mixed[0])]
        assert L.canonicalize(mixed, n, ctx) == a


def test_simple_and_trivial():
    s = L.simple_subspace(4, 2, F2)
    assert L.is_simple(s)
    assert s.rows == ((1, 0, 0, 0), (0, 1, 0, 0))
    assert L.trivial_subspace(3, F2).k == 0
    assert L.full_subspace(3, F3).k == 3


def test_row_scans():
    rng = random.Random(5)
    rows = [(), (0, 0, 0), (256, 0, 0), (0, 0, 256)]
    rows += [tuple(rng.choice((0, 0, 1, 300)) for _ in range(rng.randrange(7)))
             for _ in range(200)]
    for row in rows + [list(r) for r in rows]:
        nonzero = [j for j, x in enumerate(row) if x]
        assert L.leading_column(row) == (nonzero or [len(row)])[0]
        assert L.last_nonzero(row) == (nonzero or [-1])[-1]


def test_sum_intersection_dimension_formula():
    rng = random.Random(17)
    n = 5
    pairs = []
    for _ in range(80):
        ctx = [F2, F3][rng.randrange(2)]
        a = L.canonicalize(random_rows(rng, n, rng.randrange(1, 4), ctx),
                           n, ctx)
        b = L.canonicalize(random_rows(rng, n, rng.randrange(1, 4), ctx),
                           n, ctx)
        pairs.append((a, b))
    # table fields, and the trivial and full operands at every field
    for ctx in (F2, F3, make_field(2, 2), make_field(3, 2)):
        for _ in range(10):
            a, b = (L.canonicalize(random_rows(rng, n, rng.randrange(n + 1),
                                               ctx), n, ctx)
                    for _ in range(2))
            pairs.append((a, b))
        for c in (L.trivial_subspace(n, ctx), L.full_subspace(n, ctx)):
            pairs.extend(((a, c), (c, b), (c, c)))
    for a, b in pairs:
        inter = L.intersect(a, b)
        total = L.subspace_sum(a, b)
        assert inter.k + total.k == a.k + b.k
        for row in inter.rows:
            assert L.contains(a, row) and L.contains(b, row)


def test_dual_properties():
    rng = random.Random(23)
    for _ in range(60):
        ctx = [F2, F3][rng.randrange(2)]
        n = rng.randrange(1, 6)
        k = rng.randrange(0, n + 1)
        rows = random_rows(rng, n, k, ctx) if k else []
        a = L.canonicalize(rows, n, ctx)
        d = L.dual(a)
        assert d.k == n - k
        assert L.dual(d) == a
        for u in a.rows:
            for v in d.rows:
                acc = 0
                for x, y in zip(u, v):
                    acc = ctx.add(acc, ctx.mul(x, y))
                assert acc == 0


def test_enumerate_matches_gaussian():
    for (n, k, q) in [(3, 1, 2), (4, 2, 2), (4, 2, 3), (3, 2, 4), (5, 2, 2)]:
        ctx = field_from_order(q)
        subs = list(L.enumerate_subspaces(n, k, ctx))
        assert len(subs) == gaussian(n, k, q)
        assert len(set(subs)) == len(subs)


def test_extend_subspace_matches_canonicalize():
    rng = random.Random(31)
    for _ in range(80):
        ctx = [F2, F3][rng.randrange(2)]
        n = 5
        k = rng.randrange(1, 4)
        base = L.canonicalize(random_rows(rng, n - 1, k - 1, ctx)
                              if k > 1 else [], n - 1, ctx)
        ext_rows = [r + (0,) for r in base.rows]
        v = [0] * n
        v[n - 1] = rng.randrange(1, ctx.q)
        for c in range(n - 1):
            if c not in base.pivots:
                v[c] = rng.randrange(ctx.q)
        padded = L.CanonicalSubspace(ctx, n, tuple(ext_rows), base.pivots)
        got = L.extend_subspace(padded, v)
        want = L.canonicalize(list(ext_rows) + [tuple(v)], n, ctx)
        assert got == want


def test_adjacency():
    a = L.canonicalize([(1, 0, 0), (0, 1, 0)], 3, F2)
    b = L.canonicalize([(1, 0, 0), (0, 0, 1)], 3, F2)
    assert L.grassmann_adjacent(a, b)
    assert not L.grassmann_adjacent(a, a)
    line = L.canonicalize([(1, 0, 0)], 3, F2)
    assert L.projective_adjacent(line, a)
    assert L.projective_adjacent(a, line)
    assert not L.projective_adjacent(line, b) or L.contains(b, (1, 0, 0))
    assert not L.projective_adjacent(a, b)


def test_subspaces_and_superspaces():
    a = L.canonicalize([(1, 0, 0), (0, 1, 0)], 3, F2)
    below = list(L.subspaces_of(a, 1))
    assert len(below) == 3
    above = list(L.superspaces_of(L.canonicalize([(1, 0, 0)], 3, F2), 2))
    assert len(above) == 3
    for s in above:
        assert L.contains(s, (1, 0, 0))
    # beyond GF(2), as the projective path search uses them (GF(9) adds
    # entry by entry): [k j]_q distinct j-dim subspaces inside a k-dim a,
    # [n-k j-k]_q distinct ones containing it
    rng = random.Random(43)
    for q in (3, 4, 9):
        ctx = field_from_order(q)
        for n in (4, 5):
            for k in sorted({2, n - 2}):
                a = L.canonicalize(random_rows(rng, n, k, ctx), n, ctx)
                for j in range(n + 1):
                    if j <= k:
                        below = L.subspaces_of(a, j)
                        assert len(below) == gaussian(k, j, q)
                        assert len(set(below)) == len(below)
                        assert all(s.k == j and L.stacked_rank(a, s) == k
                                   for s in below)
                    if j >= k:
                        above = L.superspaces_of(a, j)
                        assert len(above) == gaussian(n - k, j - k, q)
                        assert len(set(above)) == len(above)
                        assert all(s.k == j and L.stacked_rank(a, s) == j
                                   for s in above)


def test_format_parse_roundtrip():
    rng = random.Random(41)
    for _ in range(30):
        ctx = [F2, F3, F5][rng.randrange(3)]
        n = rng.randrange(1, 5)
        k = rng.randrange(0, n + 1)
        a = L.canonicalize(random_rows(rng, n, k, ctx) if k else [], n, ctx)
        text = L.format_subspace(a)
        back, was_canonical = L.parse_subspace(text, ctx)
        assert back == a and was_canonical


def test_parse_non_canonical_flag():
    sub, was_canonical = L.parse_subspace("2 3 2\n0 1 0\n1 0 0\n", F2)
    assert not was_canonical
    assert sub == L.canonicalize([(1, 0, 0), (0, 1, 0)], 3, F2)
    with pytest.raises(ValueError):
        L.parse_subspace("2 3 2\n1 0\n0 1\n", F2)


def test_pack_subspace_injective():
    # lanewise sums in characteristic 2 and over a prime, entry-by-entry
    # sums on byte and on 16-bit lanes
    for q in (2, 3, 9, 257):
        seen = {}
        for k in range(4):
            for sub in L.enumerate_subspaces(3, k, field_from_order(q)):
                key = L.pack_subspace(sub)
                assert key not in seen
                seen[key] = sub


# -- rref, tau and dual against the column-scan oracle ----------------------
# _column_rref and _column_tau are column loops on tuple rows with field
# calls only.  linalg's rref, canonicalize and dual work on packed rows at
# every field, one row at a time, and share no code with them.


def _column_rref(rows, n, ctx):
    mul, sub, inv = ctx.mul, ctx.sub, ctx.inv
    work = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        f = inv(work[rank][col])
        row = work[rank] = [mul(f, x) for x in work[rank]]
        for i in range(len(work)):
            g = work[i][col]
            if i != rank and g:
                work[i] = [sub(x, mul(g, y)) for x, y in zip(work[i], row)]
        pivots.append(col)
        rank += 1
    return [tuple(r) for r in work[:rank]], tuple(pivots)


def _column_tau(rows, n, ctx):
    """From column n-1 down, the last unplaced row nonzero there is scaled
    to end in 1, cleared from the other unplaced rows and placed."""
    mul, sub, inv = ctx.mul, ctx.sub, ctx.inv
    work = [list(r) for r in rows]
    unplaced = list(range(len(work)))
    for col in range(n - 1, -1, -1):
        hit = [i for i in unplaced if work[i][col]]
        if not hit:
            continue
        i = hit.pop()
        f = inv(work[i][col])
        row = work[i] = [mul(f, x) for x in work[i]]
        for j in hit:
            g = work[j][col]
            work[j] = [sub(x, mul(g, y)) for x, y in zip(work[j], row)]
        unplaced.remove(i)
    return tuple(map(tuple, work))


def _column_dual(a):
    """Canonical rows of the complement: e_f - sum_i R[i][f] e_(p_i) from
    the rref R of a, f a free column, canonicalized by the oracles."""
    ctx, n = a.ctx, a.n
    reduced, pivots = _column_rref(a.rows, n, ctx)
    vectors = []
    for f in sorted(set(range(n)) - set(pivots)):
        vec = [0] * n
        vec[f] = 1
        for row, p in zip(reduced, pivots):
            vec[p] = ctx.neg(row[f])
        vectors.append(vec)
    return _column_tau(_column_rref(vectors, n, ctx)[0], n, ctx)


CANON_FIELDS = [field_from_order(q)
                for q in (2, 3, 4, 5, 8, 16, 127, 256, 9, 131, 257, 1024)]


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.data())
def test_rref_canonicalize_and_dual_match_the_column_scan(data):
    # n <= 64, on a third of the draws n <= 6; zero, repeated and
    # dependent rows, and up to n + 3 rows when n is small.  GF(9) and
    # GF(131) add entry by entry on byte lanes, GF(257) and GF(1024) on
    # 16-bit lanes.
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    ctx = rng.choice(CANON_FIELDS)
    q = ctx.q
    n = rng.choice((rng.randint(1, 6), rng.randint(1, 64), rng.randint(1, 64)))
    rows = []
    for _ in range(rng.randint(0, min(n + 3, 10))):
        kind = rng.randrange(5)
        if kind == 0 or not rows:
            dense = rng.random() < 0.5
            rows.append(tuple(rng.randrange(1, q)
                              if dense or rng.random() < 0.1 else 0
                              for _ in range(n)))
        elif kind == 1:
            rows.append((0,) * n)
        elif kind == 2:
            rows.append(rng.choice(rows))
        else:
            x = [0] * n
            for r in rows:
                f = rng.randrange(q)
                x = [ctx.add(e, ctx.mul(f, y)) for e, y in zip(x, r)]
            rows.append(tuple(x))
    rng.shuffle(rows)
    reduced, pivots = _column_rref(rows, n, ctx)
    assert L.rref(rows, n, ctx) == (reduced, pivots)
    W = L.canonicalize(rows, n, ctx)
    assert W.rows == _column_tau(reduced, n, ctx) and W.pivots == pivots
    assert W.packed == _packing_of(W)
    D = L.dual(W)
    assert D.rows == _column_dual(W) and D.packed == _packing_of(D)
    assert D.pivots == _column_rref(D.rows, n, ctx)[1]
    for u in W.rows:
        for v in D.rows:
            assert reduce(ctx.add, map(ctx.mul, u, v), 0) == 0


def test_rows_of_another_length_are_rejected():
    # a longer row would overflow its n-byte packing, or drop out when it
    # is zero up to n; a shorter one would be read past its end
    F9 = field_from_order(9)
    message = "rows must have length 3"
    for ctx in (F2, F3, F9, field_from_order(257)):
        for rows in ([(1, 0, 1, 1)], [(0, 0, 0, 1)], [(1, 0)],
                     [(1, 0, 0), (0, 1)]):
            for call in (L.canonicalize, L.rref):
                with pytest.raises(ValueError, match=message):
                    call(rows, 3, ctx)
        with pytest.raises(ValueError, match=message):
            L.parse_subspace("2 3 %d\n1 0 0\n0 1\n" % ctx.q, ctx)
    a = L.canonicalize([(1, 0, 1)], 3, F2)
    with pytest.raises(ValueError, match=message):
        L.subspace_sum(a, L.CanonicalSubspace(F2, 3, ((0, 1, 0, 1),), (1,)))


# -- packed-row kernels against tuple-row oracles ----------------------------
# The oracles below use only ctx.mul, ctx.sub and ctx.inv on tuple rows,
# and the rank of _column_rref.  The fields cover every kind whose rows add
# lane by lane (GF(2), characteristic 2 up to 256, primes up to 127, the
# largest whose lane sums fit a byte) and every kind whose rows add entry
# by entry (odd extension fields, the first prime above 128, and a prime
# and a field of characteristic 2 on 16-bit lanes).

KERNEL_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                           max_examples=320)
LANEWISE_QS = (2, 3, 4, 5, 7, 8, 16, 127, 128, 256)
ENTRYWISE_QS = (9, 27, 131, 257, 1024)
KERNEL_FIELDS = [field_from_order(q)
                 for q in sorted(LANEWISE_QS + ENTRYWISE_QS)]


def _kernel_field(rng):
    """GF(2), the codec's main field, on half the draws; else one of the
    other fourteen.  A seeded generator picks: a derandomized sampled_from
    skips some of them."""
    return KERNEL_FIELDS[0] if rng.random() < 0.5 else rng.choice(
        KERNEL_FIELDS[1:])


def _fresh_packing(rows, q):
    """rows as ints, one byte per entry for q <= 256 and two above."""
    width = 1 if q <= 256 else 2
    return tuple(sum(e << (8 * width * c) for c, e in enumerate(r))
                 for r in rows)


def _packing_of(sub):
    """What sub.packed must hold once built."""
    return _fresh_packing(sub.rows, sub.ctx.q)


def _mask_of(sub):
    """What sub.pivot_mask must hold once built: every bit of each pivot
    lane."""
    bits = 8 if sub.ctx.q <= 256 else 16
    return sum(((1 << bits) - 1) << (bits * p) for p in sub.pivots)


def _tuple_reduce(a, v):
    ctx = a.ctx
    v = list(v)
    for row, p in zip(a.rows, a.pivots):
        if v[p]:
            f = ctx.mul(v[p], ctx.inv(row[p]))
            v = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(v, row)]
    return v


@st.composite
def kernel_cases(draw):
    """(a, b, v, same) over GF(q)^n, n <= 256.

    Entries are drawn from a seeded generator: uniform, all q-1 (over a
    prime field the lane sum 2p-2 that carries most) or sparse.  b and v
    mix vectors of a's span with random ones, so overlapping subspaces
    and members of a both occur; same is a from a reversed, padded basis.
    """
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    ctx = _kernel_field(rng)
    q, top = ctx.q, ctx.q - 1
    n = draw(st.integers(1, 256))

    def fresh():
        kind = rng.randrange(4)
        if kind == 0:
            return [top] * n
        if kind == 1:
            return [top if rng.random() < 0.2 else 0 for _ in range(n)]
        return [rng.randrange(q) for _ in range(n)]

    span = [fresh() for _ in range(draw(st.integers(0, min(n, 6))))]

    def mixed():
        x = fresh() if draw(st.booleans()) else [0] * n
        for r in span:
            f = rng.choice((0, 1, top, rng.randrange(q)))
            x = [ctx.add(e, ctx.mul(f, y)) for e, y in zip(x, r)]
        return tuple(x)

    a = L.canonicalize(span, n, ctx)
    b = L.canonicalize([mixed()
                        for _ in range(draw(st.integers(0, min(n, 6))))],
                       n, ctx)
    same = L.canonicalize(span[::-1] + [[0] * n], n, ctx)
    return a, b, mixed(), same


@KERNEL_SETTINGS
@given(kernel_cases())
def test_lane_kernels_match_oracles(case):
    a, b, v, same = case
    ctx, n = a.ctx, a.n
    assert L.stacked_rank(a, b) == len(_column_rref(a.rows + b.rows, n,
                                                    ctx)[0])
    assert L.stacked_rank(b, a) == L.stacked_rank(a, b)
    assert L.contains(a, v) == (len(_column_rref(a.rows + (v,), n, ctx)[0])
                                == a.k)
    assert L.reduce_vector(a, v) == _tuple_reduce(a, v)
    for f in {1, ctx.q - 1, v[0]}:
        assert L.scale_vector(ctx, v, f) == tuple(ctx.mul(f, x) for x in v)
    assert (L.pack_subspace(a) == L.pack_subspace(b)) == (a == b)
    assert same == a and L.pack_subspace(same) == L.pack_subspace(a)
    # a subspace made from rows alone, with no packed rows yet
    bare = L.CanonicalSubspace(ctx, n, a.rows, a.pivots)
    assert L.pack_subspace(bare) == L.pack_subspace(a)


@KERNEL_SETTINGS
@given(kernel_cases())
def test_packed_rows_carry_through_derived_subspaces(case):
    a, _, v, _ = case
    ctx = a.ctx
    # canonicalize packs, and a subspace made from rows alone packs when a
    # kernel first needs it
    assert a.packed == _packing_of(a)
    a = L.CanonicalSubspace(ctx, a.n, a.rows, a.pivots)
    assert a.packed is None
    L.contains(a, v)
    assert a.packed == _packing_of(a)
    x = L.reduce_vector(a, v)
    if any(x):
        ext = L.extend_subspace(a, x)
        assert ext.packed == _packing_of(ext)
        trail = L.last_nonzero(x)
        f = ctx.inv(x[trail])
        assert tuple(ctx.mul(f, e) for e in x) in ext.rows
        assert L.stacked_rank(ext, ext) == a.k + 1


@settings(derandomize=True, database=None, deadline=None, max_examples=110)
@given(st.data())
def test_packed_rows_at_every_codec_level(data):
    ctx = _kernel_field(random.Random(data.draw(st.integers(0, 2 ** 32))))
    n = data.draw(st.integers(2, 64))
    k = data.draw(st.integers(1, min(n - 1, 16 if ctx.q == 2 else 6)))
    params = codec.CodecParams(n, k, ctx)
    m = data.draw(st.integers(0, params.size - 1))
    reduce_vector = grassmann_gray.reduce_vector
    bases = []

    def reduce_checked(base, x):
        # every base the codec reduces against: the ones encode and
        # decode_fast grow level by level and the reference decode's
        # stripped ones; packed ints appear on first use and carry over
        assert base.pivots == tuple(map(L.leading_column, base.rows))
        assert base.packed in (None, _packing_of(base))
        assert base.pivot_mask in (None, _mask_of(base))
        out = reduce_vector(base, x)
        assert out == _tuple_reduce(base, x)
        bases.append(base)
        return out

    with mock.patch.object(grassmann_gray, "reduce_vector", reduce_checked):
        W = codec.encode(params, m)
        assert codec.decode_fast(params, W) == m
        assert codec.decode(params, W) == m
    assert W.packed in (None, _packing_of(W))
    # below an extension level of a k >= 2 item lies a base with a
    # successor, so the reference decode reduces at least once
    assert bases or m == 0 or k == 1


def _mask_carrying_bases(rng, ctx):
    """(path, base) over GF(q)^n, n <= 32, for every way a subspace gets
    its pivot mask: filled by simple_subspace and canonicalize, set by
    extend_subspace and extension_block, cleared by the reference decode's
    row removal, and built on first use for rows alone (which
    extend_subspace then leaves unbuilt)."""
    q = ctx.q
    n = rng.randint(2, 32)
    k = rng.randint(1, min(n - 1, 8))
    simple = L.simple_subspace(n, k, ctx)
    rows = [[rng.randrange(q) if rng.random() < 0.5 else 0
             for _ in range(n)] for _ in range(k + 1)]
    rows[0][rng.randrange(n)] = 1           # so that canon has a row
    canon = L.canonicalize(rows, n, ctx)
    bare = L.CanonicalSubspace(ctx, n, canon.rows, canon.pivots)
    yield "canonicalize", canon
    yield "simple_subspace", simple
    for base in (simple, canon, L.CanonicalSubspace(ctx, n, canon.rows,
                                                    canon.pivots)):
        x = L.reduce_vector(base, [rng.randrange(q) for _ in range(n)])
        if any(x):
            yield "extend_subspace", L.extend_subspace(base, x)
    top = rng.randrange(k - 1, n)
    base = L.canonicalize([r[:top] + [0] * (n - top) for r in rows[:k - 1]]
                          + [[0] * n], n, ctx)
    width = q ** min(top - base.k, 4)       # the classes on the low digits
    classes = sorted(rng.sample(range(width), min(width, 3)))
    for item in L.extension_block(base, top, classes):
        yield "extension_block", item
    for j in range(canon.k):
        yield "_without_row", L._without_row(canon, j)
    yield "rows alone", bare


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.integers(0, 2 ** 32))
def test_carried_pivot_masks_reduce_as_the_oracle(seed):
    # the masks a walk carries name exactly the pivot lanes, or the hit
    # path would skip a lane it must clear or clear one by the wrong row
    rng = random.Random(seed)
    for ctx in KERNEL_FIELDS:
        q, paths = ctx.q, set()
        for path, base in _mask_carrying_bases(rng, ctx):
            paths.add(path)
            assert base.pivot_mask in (None, _mask_of(base)), path
            n = base.n
            span = [[rng.randrange(q) for _ in base.rows] for _ in range(2)]
            vectors = [[rng.randrange(q) for _ in range(n)],
                       [rng.randrange(q) if rng.random() < 0.1 else 0
                        for _ in range(n)]]
            vectors += [[reduce(ctx.add, col, 0) for col in zip(*[
                [ctx.mul(f, e) for e in r] for f, r in zip(fs, base.rows)])]
                        if base.rows else [0] * n for fs in span]
            for v in vectors:
                assert L.reduce_vector(base, v) == _tuple_reduce(base, v), (
                    path, q, base.rows, v)
            # a rank skips the rows of the lanes outside the mask, whatever
            # the field
            assert L.stacked_rank(base, L.canonicalize(vectors, n, ctx)) == (
                L.canonicalize(list(base.rows) + vectors, n, ctx).k), path
            if path == "rows alone":
                # built on first use: by a reduction over a lanewise field
                # (entry-wise ones reduce unpacked), by a rank over any
                assert base.pivot_mask == _mask_of(base)
        assert {"canonicalize", "simple_subspace", "extension_block",
                "_without_row", "rows alone"} <= paths, (q, paths)


def test_entries_outside_the_field_are_rejected():
    # a lane kernel would let such an entry spill into the next column
    F4 = field_from_order(4)
    b = L.canonicalize([(1, 0, 2)], 3, F3)
    b4 = L.canonicalize([(1, 0, 2)], 3, F4)
    cases = [(lambda: L.contains(b, (4, 0, 2)), 3),
             (lambda: L.contains(b4, (5, 0, 2)), 4),
             (lambda: L.contains(b, (1, 0, -1)), 3),
             (lambda: L.canonicalize([(1, 0, -1)], 3, F3), 3),
             (lambda: L.canonicalize([(4, 0, 2)], 3, F3), 3),
             (lambda: L.canonicalize([(1, 0), (0, 256)], 2, F2), 2),
             (lambda: L.parse_subspace("1 3 3\n1 0 3\n", F3), 3),
             (lambda: L.parse_subspace("1 3 4\n1 0 -1\n"), 4)]
    for call, q in cases:
        with pytest.raises(ValueError, match=r"range\(%d\)" % q):
            call()
    assert L.contains(b, (2, 0, 1)) and not L.contains(b, (1, 0, 0))
    # a number in [0, q) that is not an int is no element index either
    line = L.simple_subspace(3, 1, field_from_order(257))
    for call in (lambda: L.contains(line, (0.5, 0, 0)),
                 lambda: L.contains(b, (1, 0, 1.5)),
                 lambda: L.canonicalize([(0.5, 1, 0)], 3, F3),
                 lambda: L.rref([(1, 0, 1), (0, 2.0, 0)], 3, F3)):
        with pytest.raises(TypeError, match="entries must be ints"):
            call()


# -- Grassmann adjacency: the shared-row test against the rank ---------------

ADJACENCY_FIELDS = [field_from_order(q) for q in (2, 3, 4, 8, 256, 9, 131)]


def test_adjacency_checks_the_ambient_space_first():
    # two distinct lines share k-1 = 0 rows, so the shared-row test alone
    # would call them adjacent even where they cannot be compared
    F4 = field_from_order(4)
    line = L.canonicalize([(1, 0, 0)], 3, F2)
    pairs = [(line, L.canonicalize([(0, 1, 0, 0)], 4, F2)),
             (line, L.canonicalize([(0, 1, 0)], 3, F4))]
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="ambient"):
                L.grassmann_adjacent(x, y)


@st.composite
def adjacency_pairs(draw):
    """(a, b) in GF(q)^n with k <= 4: two extensions of one (k-1)-dim base,
    which share its k-1 rows; a and a copy of it; or two unrelated ones.

    An extension row ends in a column the base is zero on, at or past t.
    """
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    ctx = rng.choice(ADJACENCY_FIELDS)
    k = rng.randrange(5)
    n = rng.randrange(max(k, 1), 9)
    kind = rng.choice(("shared", "shared", "equal", "unrelated"))
    if kind == "shared" and 0 < k < n:
        t = rng.randrange(k - 1, n)
        base = L.canonicalize([r + [0] * (n - t) for r in
                               random_rows(rng, t, k - 1, ctx)], n, ctx)

        def extension():
            top = rng.randrange(t, n)
            v = [rng.randrange(ctx.q) for _ in range(top)]
            v += [rng.randrange(1, ctx.q)] + [0] * (n - 1 - top)
            return L.extend_subspace(base, L.reduce_vector(base, v))

        return extension(), extension()
    a = L.canonicalize(random_rows(rng, n, k, ctx), n, ctx)
    if kind == "equal":
        return a, L.CanonicalSubspace(ctx, n, a.rows, a.pivots)
    rows = [[rng.randrange(ctx.q) for _ in range(n)]
            for _ in range(rng.choice((k, k, rng.randrange(5))))]
    return a, L.canonicalize(rows, n, ctx)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(adjacency_pairs())
def test_adjacency_matches_the_rank(pair):
    a, b = pair
    for x, y in (a, b), (b, a):
        assert L.grassmann_adjacent(x, y) == (
            x.k == y.k and L.stacked_rank(x, y) == x.k + 1)
