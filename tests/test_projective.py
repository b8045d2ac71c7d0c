import io
from math import gcd

import pytest

from grayspace.field import extend_field, field_from_order
from grayspace import linalg as L
from grayspace.grassmann_gray import (GraySequence, dual_code,
                                      read_gray_file, verify_gray,
                                      write_gray_file)
from grayspace.projective_gray import (NecklacePath, build_full_n1,
                                       build_full_n3, build_full_n5,
                                       expand_path, fixture_code_2_2,
                                       multiply_subspace, necklace_decompose,
                                       nonexistence_certificate,
                                       search_necklace_path)
from grayspace.qcombin import gaussian, q_number


def tower(q, n):
    ctx = field_from_order(q)
    return ctx, extend_field(ctx, n)


def test_nonexistence_examples():
    r = nonexistence_certificate(2, 2)
    assert (r.neighbor_count, r.middle_count, r.deficit) == (2, 3, 1)
    assert r.cyclic_excluded and not r.noncyclic_excluded

    r = nonexistence_certificate(4, 2)
    assert (r.neighbor_count, r.middle_count, r.deficit) == (30, 35, 5)
    assert r.noncyclic_excluded

    r = nonexistence_certificate(2, 3)
    assert (r.neighbor_count, r.deficit) == (2, 2)

    with pytest.raises(ValueError):
        nonexistence_certificate(3, 2)


def test_nonexistence_grid():
    for n in (2, 4, 6, 8, 10, 12):
        for q in range(2, 10):
            r = nonexistence_certificate(n, q)
            assert r.ratio_identity_ok
            assert r.deficit >= 1
            if (n, q) != (2, 2):
                assert r.deficit >= 2


def test_fixture_code_2_2():
    seq = fixture_code_2_2()
    assert len(seq) == 5 and not seq.cyclic
    dims = [s.k for s in seq.items]
    assert dims == [1, 0, 1, 2, 1]
    report = verify_gray(seq)
    assert report.passed and report.optimal
    assert not L.projective_adjacent(seq.items[-1], seq.items[0])


def test_necklace_decompose_counts():
    for (n, q, dim, count) in [(3, 2, 1, 1), (3, 2, 2, 1), (3, 3, 1, 1),
                               (5, 2, 2, 5), (5, 2, 3, 5)]:
        ctx, ctx_qn = tower(q, n)
        orbits = necklace_decompose(dim, ctx_qn)
        assert len(orbits) == count
        size = q_number(n, q)
        total = 0
        seen = set()
        for orbit in orbits:
            assert len(orbit) == size
            assert orbit[0] == min(orbit, key=lambda s: s.rows)
            for member in orbit:
                assert member not in seen
                seen.add(member)
            total += len(orbit)
        assert total == gaussian(n, dim, q)


def test_multiply_subspace_is_action():
    ctx, ctx_qn = tower(2, 5)
    alpha = ctx_qn.primitive_index()
    sub = L.simple_subspace(5, 2, ctx)
    cur = sub
    for _ in range(q_number(5, 2)):
        cur = multiply_subspace(cur, ctx_qn, alpha)
        assert cur.k == 2
    assert cur == sub


def test_multiply_subspace_rejects_bad_input():
    ctx, ctx_qn = tower(2, 5)
    sub = L.simple_subspace(5, 2, ctx)
    for elem in (0, -1, ctx_qn.q):
        with pytest.raises(ValueError):
            multiply_subspace(sub, ctx_qn, elem)
    assert multiply_subspace(sub, ctx_qn, ctx_qn.q - 1).k == 2
    # a GF(2) subspace with an extension of GF(3)
    _, ctx3_qn = tower(3, 5)
    with pytest.raises(ValueError):
        multiply_subspace(sub, ctx3_qn, ctx3_qn.primitive_index())


def test_path_orbits_are_alpha_multiples():
    # the path reads alpha-multiples off its orbits; multiplying is the
    # oracle
    for n, q in [(3, 2), (3, 3), (3, 4), (3, 9), (5, 2)]:
        ctx, ctx_qn = tower(q, n)
        alpha = ctx_qn.primitive_index()
        path = search_necklace_path(ctx_qn)
        for orbit in path.orbits:
            assert len(orbit) == q_number(n, q)
            for t, sub in enumerate(orbit):
                assert (orbit[(t + 1) % len(orbit)]
                        == multiply_subspace(sub, ctx_qn, alpha))


def test_search_necklace_path_n3():
    for q in (2, 3):
        ctx, ctx_qn = tower(q, 3)
        path = search_necklace_path(ctx_qn)
        assert len(path.reps) == 2
        x0, y0 = path.reps
        assert (x0.k, y0.k) == (1, 2)
        assert L.projective_adjacent(x0, y0)
        assert gcd(path.ell, q_number(3, q)) == 1


def test_search_necklace_path_n5():
    ctx, ctx_qn = tower(2, 5)
    path = search_necklace_path(ctx_qn)
    assert len(path.reps) == 10
    dims = [s.k for s in path.reps]
    assert dims == [2, 3] * 5
    for a, b in zip(path.reps, path.reps[1:]):
        assert L.projective_adjacent(a, b)


def test_expand_path_middle_levels():
    for q in (2, 3):
        ctx, ctx_qn = tower(q, 3)
        mid = expand_path(search_necklace_path(ctx_qn))
        assert len(mid) == 2 * (q * q + q + 1)
        report = verify_gray(mid, require_optimal=False)
        assert report.passed and report.duplicates == 0

    ctx, ctx_qn = tower(2, 5)
    mid = expand_path(search_necklace_path(ctx_qn))
    assert len(mid) == 310
    assert verify_gray(mid, require_optimal=False).passed


def test_necklace_entry_points_reject_bad_input():
    # the path search is implemented for degrees 3 and 5 only
    with pytest.raises(ValueError):
        search_necklace_path(tower(2, 4)[1])
    # necklaces live in an extension GF(q^n), not in a prime field
    with pytest.raises(ValueError):
        necklace_decompose(1, field_from_order(5))
    # orbits of unequal size cannot be expanded block by block
    path = search_necklace_path(tower(2, 3)[1])
    short = NecklacePath((path.orbits[0], path.orbits[1][:-1]), path.ell)
    with pytest.raises(ValueError):
        expand_path(short)


def test_build_full_n1():
    seq = build_full_n1(field_from_order(2))
    assert len(seq) == 2
    assert seq.items[0].k == 0 and seq.items[1].k == 1
    assert verify_gray(seq).passed


def test_build_full_n3():
    for q, length in [(2, 16), (3, 28), (4, 44)]:
        ctx = field_from_order(q)
        seq = build_full_n3(ctx)
        assert len(seq) == length == 2 * q * q + 2 * q + 4
        assert seq.items[0].k == 0 and seq.items[1].k == 1
        report = verify_gray(seq)
        assert report.passed and report.optimal


def test_build_full_n5():
    for q, length in [(2, 374), (3, 2664), (4, 12278)]:
        ctx = field_from_order(q)
        seq = build_full_n5(ctx)
        assert len(seq) == length
        assert length == sum(gaussian(5, k, q) for k in range(6))
        report = verify_gray(seq)
        assert report.passed and report.optimal


def test_build_full_n3_coverage():
    ctx = field_from_order(2)
    seq = build_full_n3(ctx)
    everything = set()
    for k in range(4):
        everything.update(L.enumerate_subspaces(3, k, ctx))
    assert set(seq.items) == everything


def test_verify_subspace_flags():
    seq = fixture_code_2_2()
    bad = GraySequence(2, None, seq.ctx, seq.items[:3] + (seq.items[0],),
                       False)
    report = verify_gray(bad, require_optimal=False)
    assert report.duplicates == 1 and not report.passed

    ctx = field_from_order(2)
    same_dim = GraySequence(3, None, ctx, (L.simple_subspace(3, 2, ctx),
                                           L.canonicalize([(1, 0, 0),
                                                           (0, 0, 1)],
                                                          3, ctx)), False)
    report = verify_gray(same_dim, require_optimal=False)
    assert report.adjacency_failures == 1


def test_proj_file_roundtrip():
    ctx = field_from_order(2)
    seq = build_full_n3(ctx)
    buf = io.StringIO()
    write_gray_file(buf, seq)
    back = read_gray_file(io.StringIO(buf.getvalue()))
    assert back.items == seq.items and back.cyclic
    assert back.n == 3 and back.k is None and back.ctx is ctx
    with pytest.raises(ValueError):
        read_gray_file(io.StringIO("NOPE\n"))


def test_proj_file_crlf_and_trailing_blanks():
    ctx = field_from_order(3)
    seq = build_full_n3(ctx)
    buf = io.StringIO()
    write_gray_file(buf, seq)
    text = buf.getvalue()
    assert text.startswith("PROJ 3 3 28 1\n\n")
    for variant in (text.replace("\n", "\r\n"), text.replace("\n", "  \n"),
                    text.replace("\n", " \t\r\n")):
        back = read_gray_file(io.StringIO(variant))
        assert back.items == seq.items and back.k is None and back.cyclic
        assert verify_gray(back).passed


def test_projective_dual_code():
    # complements reverse containment: the dual is again a P_q(n) code
    ctx = field_from_order(2)
    d = dual_code(build_full_n3(ctx))
    assert d.k is None
    report = verify_gray(d)
    assert report.passed and report.optimal and report.k is None
