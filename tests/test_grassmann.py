import inspect
import io
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from grayspace.field import field_from_order, make_field
from grayspace import linalg as L
from grayspace.grassmann_gray import (ChoiceSource, ConstraintViolation,
                                      GraySequence, RandomChoiceSource,
                                      ScriptedChoiceSource,
                                      _allowed_class_indices,
                                      _class_row, _closing_class, _row_class,
                                      block_class_order,
                                      build_general, build_simple,
                                      closing_class_index, dual_code,
                                      iter_simple, read_gray_file,
                                      verify_gray, write_gray_file)
from grayspace.codec import CodecParams, encode
from grayspace.qcombin import count_lower_bound, gaussian
from oracles import extend_subspace

F2 = make_field(2, 1)
F3 = make_field(3, 1)


def _nonpivot_columns(base):
    """base's nonpivot columns, ascending."""
    return [c for c in range(base.n) if c not in base.pivots]


def pad(sub):
    """sub in W^(sub.n+1), with a zero last column: the embedding the
    oracles use, independent of the n-wide stream."""
    return L.CanonicalSubspace(sub.ctx, sub.n + 1,
                               tuple(r + (0,) for r in sub.rows), sub.pivots)


def oracle_rep_vector(q, n, nonpiv, j):
    """Representative of class j in W^n: base-q digits of j on nonpiv, last
    entry 1; one divmod per digit."""
    v = [0] * n
    v[n - 1] = 1
    for r in nonpiv:
        if not j:
            break
        j, d = divmod(j, q)
        v[r] = d
    return v


def oracle_class_digits(v, nonpiv, q):
    """Inverse of oracle_rep_vector: the class index read off v's digits
    one multiply-add per digit."""
    c = 0
    for r in reversed(nonpiv):
        c = c * q + v[r]
    return c


def oracle_class_step(sub, q, nonpiv, n, a, b):
    """The representative of class b minus that of class a, length n,
    visiting only the digits where a and b differ."""
    x = [0] * n
    for r in nonpiv:
        if a == b:
            break
        a, da = divmod(a, q)
        b, db = divmod(b, q)
        x[r] = sub(db, da)
    return x


def representatives(base):
    """The explicit representative of every class of base, in class order:
    vectors of W^(base.n+1)."""
    q, nonpiv = base.ctx.q, _nonpivot_columns(base)
    return [tuple(oracle_rep_vector(q, base.n + 1, nonpiv, j))
            for j in range(q ** len(nonpiv))]


# -- class digits by slices against the digit loops ---------------------------

RADIX_QS = (2, 3, 4, 5, 8, 9, 36, 37, 64, 256, 257, 1024)


def _draw_radix_case(data):
    """(q, pivots, top, n, nonpiv, rng): sorted pivots below top-1, top up
    to 512; the densities give no pivot, every pivot, runs of adjacent
    ones and column 0 among them."""
    q = data.draw(st.sampled_from(RADIX_QS), label="q")
    top = data.draw(st.integers(1, 512), label="top")
    n = top + data.draw(st.integers(0, 3), label="pad")
    rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
    density = data.draw(st.sampled_from((0, 0.05, 0.5, 0.95, 1)),
                        label="density")
    pivots = tuple(c for c in range(top - 1) if rng.random() < density)
    nonpiv = [c for c in range(top - 1) if c not in set(pivots)]
    return q, pivots, top, n, nonpiv, rng


def class_row(c, pivots, top, n, q):
    """_class_row's entries, n wide and zero from top on."""
    return tuple(_class_row(c, pivots, top, q)) + (0,) * (n - top)


def _draw_class(data, q, w, rng):
    """0, 1, the last class or a random one of the q^w classes."""
    kind = data.draw(st.sampled_from(("zero", "one", "last", "random")),
                     label="class")
    width = q ** w
    return {"zero": 0, "one": min(1, width - 1), "last": width - 1,
            "random": rng.randrange(width)}[kind]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.data())
def test_class_row_and_row_class_match_the_digit_loops(data):
    q, pivots, top, n, nonpiv, rng = _draw_radix_case(data)
    j = _draw_class(data, q, len(nonpiv), rng)
    row = class_row(j, pivots, top, n, q)
    assert row == (tuple(oracle_rep_vector(q, top, nonpiv, j))
                   + (0,) * (n - top))
    assert _row_class(row, pivots, top - 1, q) == j
    # any entries on the pivot columns and from top-1 on are ignored
    v = [rng.randrange(q) for _ in range(n)]
    c = _row_class(v, pivots, top - 1, q)
    assert c == oracle_class_digits(v, nonpiv, q)
    back = class_row(c, pivots, top, n, q)
    assert [back[r] for r in nonpiv] == [v[r] for r in nonpiv]


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.data())
def test_class_row_differences_match_the_class_step(data):
    q, pivots, top, n, nonpiv, rng = _draw_radix_case(data)
    if q == 36:
        q = 37      # not a field order
    ctx = field_from_order(q)
    a = _draw_class(data, q, len(nonpiv), rng)
    b = _draw_class(data, q, len(nonpiv), rng)
    step = [ctx.sub(y, x) for x, y in zip(
        class_row(a, pivots, top, n, q),
        class_row(b, pivots, top, n, q))]
    assert step == oracle_class_step(ctx.sub, q, nonpiv, n, a, b)


def test_explicit_representatives_examples():
    assert representatives(L.trivial_subspace(1, F2)) == [(0, 1), (1, 1)]

    base = L.canonicalize([(1, 0, 0)], 3, F2)
    assert representatives(base) == [(0, 0, 0, 1), (0, 1, 0, 1),
                                     (0, 0, 1, 1), (0, 1, 1, 1)]
    # j = 0 is always the last unit vector alone
    for k in (0, 1):
        rep = representatives(L.simple_subspace(3, k, F3))[0]
        assert rep[-1] == 1
        assert not any(rep[:-1])


def test_extension_family_invariants():
    rng = random.Random(2)
    for ctx in (F2, F3):
        for _ in range(20):
            n, k = 4, rng.randrange(1, 4)
            for base in itertools.islice(
                    L.enumerate_subspaces(n - 1, k - 1, ctx), 5):
                width = ctx.q ** (n - k)
                exts = list(L.extension_block(pad(base), n - 1,
                                              range(width)))
                assert len(set(exts)) == width
                for rep, ext in zip(representatives(base), exts):
                    assert ext.k == k
                    # the one row that leaves the hyperplane is the
                    # class's representative
                    assert [r for r in ext.rows if r[-1]] == [rep]
                    # back inside the hyperplane we recover the base
                    clipped = L.canonicalize(
                        [r[:-1] for r in ext.rows if not r[-1]], n - 1, ctx)
                    assert clipped == base


def test_build_simple_degenerate():
    for (n, k) in [(3, 0), (3, 3), (1, 1), (2, 0)]:
        seq = build_simple(n, k, F2)
        assert len(seq.items) == 1
        assert seq.items[0] == L.simple_subspace(n, k, F2)
        assert verify_gray(seq).passed


def test_build_simple_2_1_2():
    seq = build_simple(2, 1, F2)
    assert [s.rows for s in seq.items] == [((1, 0),), ((1, 1),), ((0, 1),)]
    report = verify_gray(seq)
    assert report.passed and report.first_simple


def test_build_simple_small_grid():
    for q in (2, 3):
        ctx = field_from_order(q)
        for n in range(1, 6):
            for k in range(n + 1):
                seq = build_simple(n, k, ctx)
                report = verify_gray(seq)
                assert report.passed, (n, k, q, report.failures)
                assert report.first_simple
                if report.ends_intersection_simple is not None:
                    assert report.ends_intersection_simple


def test_iter_simple_streams_lazily():
    gen = iter_simple(6, 3, F3)
    first = next(gen)
    assert first == L.simple_subspace(6, 3, F3)
    gen.close()


def test_build_general_default_matches_simple():
    for (n, k, q) in [(4, 2, 2), (3, 2, 2), (4, 2, 3), (4, 3, 2)]:
        ctx = field_from_order(q)
        assert build_general(n, k, ctx).items == build_simple(n, k, ctx).items


def test_build_general_random_always_valid():
    ctx = F2
    seen = set()
    for seed in range(100):
        seq = build_general(4, 2, ctx, RandomChoiceSource(seed))
        assert len(seq.items) == 35
        report = verify_gray(seq)
        assert report.passed, (seed, report.failures)
        seen.add(seq.items)
    assert len(seen) > 1


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(q=st.sampled_from((2, 3, 4)), n=st.integers(0, 5), data=st.data(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_build_general_random_property(q, n, data, seed):
    # any seeded run of the construction is an optimal cyclic Gray code
    k = data.draw(st.integers(0, n))
    ctx = field_from_order(q)
    seq = build_general(n, k, ctx, RandomChoiceSource(seed))
    assert len(seq) == gaussian(n, k, q)
    report = verify_gray(seq)
    assert report.passed, (n, k, q, seed, report.failures)


def test_build_general_random_3_1_2():
    for seed in range(20):
        seq = build_general(3, 1, F2, RandomChoiceSource(seed))
        assert len(seq.items) == 7
        assert verify_gray(seq).passed


def test_build_general_rejects_bad_orders():
    # plain ascending orders at every block break the adjacency chain
    script = {(4, 2): {"orders": [list(range(4))] * 7}}
    with pytest.raises(ConstraintViolation):
        build_general(4, 2, F2, ScriptedChoiceSource(script))
    with pytest.raises(ConstraintViolation):
        build_general(3, 1, F2, ScriptedChoiceSource(
            {(3, 1): {"orders": [[0, 0, 1, 2]]}}))
    with pytest.raises(ConstraintViolation):
        build_general(3, 1, F2, ScriptedChoiceSource({(3, 1): {"j": 9}}))
    with pytest.raises(ConstraintViolation):
        build_general(3, 1, F2, ScriptedChoiceSource({(3, 1): {"ell": 3}}))
    # fewer orders than blocks, and classes or insertion choices that are
    # not ints
    with pytest.raises(ConstraintViolation):
        build_general(4, 2, F2, ScriptedChoiceSource(
            {(4, 2): {"orders": [[0, 3, 1, 2]]}}))
    for order in ([0, "1", 2, 3], [0, 1.0, 2, 3]):
        with pytest.raises(ConstraintViolation):
            build_general(3, 1, F2, ScriptedChoiceSource(
                {(3, 1): {"orders": [order]}}))
    with pytest.raises(ConstraintViolation):
        build_general(3, 1, F2, ScriptedChoiceSource({(3, 1): {"j": "0"}}))
    with pytest.raises(ConstraintViolation):
        build_general(3, 1, F2, ScriptedChoiceSource({(3, 1): {"ell": 1.0}}))


def test_scripted_census_3_1_2_meets_lower_bound():
    bound = count_lower_bound(3, 1, 2)
    seen = set()
    for low_order in itertools.permutations(range(2)):
        for top_order in itertools.permutations(range(4)):
            for j in range(3):
                for ell in range(3):
                    script = {(2, 1): {"orders": [list(low_order)]},
                              (3, 1): {"orders": [list(top_order)],
                                       "j": j, "ell": ell}}
                    seq = build_general(3, 1, F2,
                                        ScriptedChoiceSource(script))
                    assert verify_gray(seq).passed
                    seen.add(tuple(L.pack_subspace(s) for s in seq.items))
    assert len(seen) >= bound


def test_verify_gray_flags():
    seq = build_simple(4, 2, F2)
    dup = GraySequence(4, 2, F2, seq.items[:-1] + (seq.items[0],), True)
    report = verify_gray(dup)
    assert not report.passed and report.duplicates == 1

    trunc = GraySequence(4, 2, F2, seq.items[:20], False)
    report = verify_gray(trunc, require_optimal=False)
    assert report.wraparound_ok is None
    assert report.passed
    assert not verify_gray(trunc).passed   # not optimal


def test_dual_code():
    seq = build_simple(4, 2, F2)
    d = dual_code(seq)
    assert d.k == 2 and len(d.items) == 35
    assert verify_gray(d).passed
    assert dual_code(d).items == seq.items

    d3 = dual_code(build_simple(3, 1, F2))
    assert d3.k == 2 and len(d3.items) == 7
    assert verify_gray(d3).passed


def test_gray_file_crlf_and_trailing_blanks():
    seq = build_simple(3, 2, F3)
    buf = io.StringIO()
    write_gray_file(buf, seq)
    text = buf.getvalue()
    for variant in (text.replace("\n", "\r\n"), text.replace("\n", "  \n"),
                    text.replace("\n", " \t\r\n")):
        back = read_gray_file(io.StringIO(variant))
        assert back.items == seq.items
        assert (back.n, back.k, back.cyclic) == (3, 2, True)
    for empty in ("", "\n\n", " \r\n"):
        with pytest.raises(ValueError):
            read_gray_file(io.StringIO(empty))


def test_gray_file_roundtrip():
    seq = build_simple(3, 2, F3)
    buf = io.StringIO()
    write_gray_file(buf, seq)
    back = read_gray_file(io.StringIO(buf.getvalue()))
    assert back.items == seq.items
    assert back.n == 3 and back.k == 2 and back.cyclic
    with pytest.raises(ValueError):
        read_gray_file(io.StringIO("BOGUS 1 2 3\n"))


def test_class_distinctness_across_bases():
    # distinct bases never produce the same extension from one vector
    for ctx in (F2, F3):
        n = 4
        for k in (1, 2):
            subs = list(L.enumerate_subspaces(n - 1, k - 1, ctx))
            v = tuple([0] * (n - 1)) + (1,)
            exts = set()
            for base in subs:
                padded = L.canonicalize([r + (0,) for r in base.rows]
                                        + [v], n, ctx)
                assert padded not in exts
                exts.add(padded)


def closing_class(base, x):
    """_closing_class of the vector x modulo base, on their packed rows."""
    lanes = L._lanes(base.ctx)
    return _closing_class(lanes, base.pivots, L._packed_rows(base),
                          L._pivot_mask(base), lanes.pack(x), base.n)


def test_closing_class_from_direction_matches_reference():
    # every vector of succ + base outside base names the reference's class;
    # scaling by alpha != 1 (q > 2) exercises the normalization
    for (n, k, q) in [(4, 2, 2), (5, 2, 2), (5, 3, 2), (4, 2, 3), (4, 1, 3),
                      (3, 2, 4), (4, 2, 4)]:
        ctx = field_from_order(q)
        items = list(iter_simple(n, k, ctx))
        for base, succ in zip(items, items[1:] + items[:1]):
            want, named = closing_class_index(base, succ)
            # the rule itself: the closing representative less its final 1
            # is a vector of succ + base whose leading entry is 1
            x = representatives(base)[want][:-1]
            assert x[L.leading_column(x)] == 1
            assert L.contains(L.subspace_sum(base, succ), x)
            outside = [u for u in succ.rows if not L.contains(base, u)]
            # the row handed back is one of them
            assert named in outside
            # the same on a codec walk state and packed rows
            lanes = L._lanes(ctx)
            walk = (base.pivots, L._packed_rows(base), L._pivot_mask(base))
            assert closing_class_index(walk, L._packed_rows(succ), lanes,
                                       n) == (want, lanes.pack(named))
            for u in outside:
                for alpha in range(1, q):
                    x = [ctx.mul(alpha, t) for t in u]
                    assert closing_class(base, x) == want
                x = [ctx.add(s, t) for s, t in zip(u, base.rows[0])]
                assert closing_class(base, x) == want
            # a direction inside the base picks no class
            assert closing_class(base, base.rows[-1]) is None


def span_vectors(a):
    """Every vector of the subspace (q^k of them), by brute force."""
    ctx, n = a.ctx, a.n
    vectors = [tuple([0] * n)]
    for row in a.rows:
        new = []
        for c in range(1, ctx.q):
            scaled = tuple(ctx.mul(c, x) for x in row)
            for v in vectors:
                new.append(tuple(ctx.add(x, y) for x, y in zip(v, scaled)))
        vectors.extend(new)
    return vectors


def class_vectors(base, v):
    """Every member of [v]_base: alpha*v + w for alpha != 0, w in the base.

    Brute force over the q^k vectors of the base; the oracle for the
    closed form in _allowed_class_indices.
    """
    ctx = base.ctx
    span = [w + (0,) for w in span_vectors(base)]
    return [tuple(ctx.add(ctx.mul(alpha, x), y) for x, y in zip(v, w))
            for alpha in range(1, ctx.q) for w in span]


def class_of(base, v):
    """Class index of a vector v of W^(base.n+1) with nonzero last entry:
    v scaled to end in 1 and cleared on base's pivots one field call at a
    time, its digits read off the other columns."""
    ctx = base.ctx
    f = ctx.inv(v[-1])
    v = [ctx.mul(f, x) for x in v]
    for row, p in zip(base.rows, base.pivots):
        if v[p]:
            g = ctx.mul(v[p], ctx.inv(row[p]))
            v = [ctx.sub(x, ctx.mul(g, y)) for x, y in zip(v, row + (0,))]
    return sum(v[r] * ctx.q ** i
               for i, r in enumerate(_nonpivot_columns(base)))


def test_allowed_class_indices_match_brute_force():
    # both orders of every consecutive (and the wraparound) base pair of
    # the simple code, every class of the earlier base
    cases = 0
    for (n, k, q) in [(4, 2, 2), (5, 3, 2), (5, 2, 2), (4, 2, 3), (4, 3, 3),
                      (3, 2, 4), (4, 2, 4)]:
        ctx = field_from_order(q)
        bases = list(iter_simple(n - 1, k - 1, ctx))
        for a, b in zip(bases, bases[1:] + bases[:1]):
            for prev, cur in ((a, b), (b, a)):
                for rep in representatives(prev):
                    brute = {class_of(cur, vec)
                             for vec in class_vectors(prev, rep)}
                    assert len(brute) == q
                    assert _allowed_class_indices(
                        pad(prev), rep, pad(cur), n) == brute
                    cases += 1
    assert cases > 1000


# -- the block builder against per-item extension ----------------------------

def oracle_block(base, classes):
    """Each class's extension built on its own: the representative vector,
    then extend_subspace."""
    ext = pad(base)
    nonpiv = _nonpivot_columns(base)
    return [extend_subspace(ext, oracle_rep_vector(base.ctx.q, ext.n, nonpiv,
                                                   c))
            for c in classes]


def oracle_iter_simple(n, k, ctx):
    """iter_simple as nested generators over oracle_block."""
    if k == 0 or k == n:
        yield L.simple_subspace(n, k, ctx)
        return
    for sub in oracle_iter_simple(n - 1, k, ctx):
        yield pad(sub)
    width = ctx.q ** (n - k)
    bases = oracle_iter_simple(n - 1, k - 1, ctx)
    first = prev = next(bases)
    held = None
    for succ in itertools.chain(bases, [first]):
        block = oracle_block(prev, block_class_order(prev, succ, width))
        if held is None:
            held = block.pop(0)     # the code's first item closes the cycle
        yield from block
        prev = succ
    yield held


def test_extension_block_matches_the_per_item_oracle():
    rng = random.Random(13)
    for q in (2, 3, 4, 5, 8, 256, 9, 131):
        ctx = field_from_order(q)
        for _ in range(12):
            n = rng.randrange(2, 7)
            k = rng.randrange(1, n)
            while q ** (n - k) > 1000:
                k += 1
            base = L.canonicalize(
                [[rng.randrange(q) for _ in range(n - 1)]
                 for _ in range(k - 1)], n - 1, ctx)
            width = q ** (n - 1 - base.k)
            order = RandomChoiceSource(rng.random()).extension_order(
                n, k, 0, width, base, None, None, None)
            got = list(L.extension_block(pad(base), n - 1, order))
            want = oracle_block(base, order)
            assert [(s.rows, s.pivots) for s in got] == [
                (s.rows, s.pivots) for s in want]
            for s in got:
                assert s.packed == tuple(int.from_bytes(bytes(r), "little")
                                         for r in s.rows)


def test_extension_block_rejects_a_base_in_its_columns():
    F4 = field_from_order(4)
    for ctx in (F2, F4, field_from_order(9)):
        base = pad(L.canonicalize([(0, 1, 1, 0)], 4, ctx))
        for top in (2, 1):
            with pytest.raises(ValueError, match="zero from column"):
                list(L.extension_block(base, top, range(2)))
        # the digits go on the nonpivots below top, 0, 2 and 3, lowest
        # first
        q = ctx.q
        new = [[r for r in s.rows if r[4]] for s in
               L.extension_block(base, 4, (1, q, q * q))]
        assert new == [[(1, 0, 0, 0, 1)], [(0, 0, 1, 0, 1)],
                       [(0, 0, 0, 1, 1)]]


def test_iter_simple_streams_deep_n():
    # generators nest k deep, not n deep: at n = 1500 a stream nested once
    # per n would exceed the recursion limit
    assert inspect.isgeneratorfunction(iter_simple)
    params = CodecParams(1500, 1, F2)
    got = list(itertools.islice(iter_simple(1500, 1, F2), 5))
    assert got == [encode(params, m) for m in range(5)]


def test_iter_simple_matches_the_per_item_oracle():
    # criterion 2's grid plus GF(9); the oracle would spend about 6 s on
    # the three cells (6, 2..4, 4) above the cap, which the stream line of
    # tools/identity_hashes.py covers instead
    for q in (2, 3, 4, 9):
        ctx = field_from_order(q)
        for n in range(7 if q < 9 else 5):
            for k in range(n + 1):
                if gaussian(n, k, q) > 5 * 10 ** 4:
                    continue
                count = 0
                for got, want in itertools.zip_longest(
                        iter_simple(n, k, ctx), oracle_iter_simple(n, k, ctx)):
                    assert (got.rows, got.pivots) == (want.rows, want.pivots)
                    count += 1
                assert count == gaussian(n, k, q)
