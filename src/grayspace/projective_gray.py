"""Subspace Gray codes in the projective-space graph P_q(n).

For even n no optimal code exists; nonexistence_certificate evaluates the
counting argument exactly.  For n = 1, 3, 5 cyclic optimal codes are
constructed over GF(q): the middle levels are covered by expanding a short
necklace path under multiplication by the primitive element alpha of
GF(q^n) = extend_field(GF(q), n), and the trivial and full spaces are
spliced in by local subsequence reversals.  The builders take GF(q) alone
and derive the tower; the necklace functions take GF(q^n) alone and read n
and GF(q) off it.  A necklace is its orbit, a tuple listed once by orbit_of
and starting at its representative; every alpha-multiple the constructions
need is read off it.
The codes are GraySequence objects with k None, so grassmann_gray's
verify_gray checks them and its GRAY/PROJ reader and writer store them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .field import (FieldContext, digits_of, extend_field, make_field,
                    undigits)
from .grassmann_gray import GraySequence
from .linalg import (CanonicalSubspace, canonicalize, enumerate_subspaces,
                     full_subspace, intersect, pack_subspace,
                     projective_adjacent, subspace_sum, subspaces_of,
                     superspaces_of, trivial_subspace)
from .qcombin import gaussian, q_number


@dataclass(frozen=True)
class NecklacePath:
    """Alternating distinct-necklace reps X_0,Y_0,...,X_{s-1},Y_{s-1}.

    orbits[j] is the orbit of reps[j], starting at it: orbits[j][t] is
    alpha^t reps[j].  ell is the closing exponent: alpha^ell X_0 is
    contained in Y_{s-1} and gcd(ell, orbit size) = 1.
    """
    orbits: tuple
    ell: int

    @property
    def reps(self):
        return tuple(orbit[0] for orbit in self.orbits)


# ---------------------------------------------------------------------------
# Nonexistence for even n.


@dataclass(frozen=True)
class NonexistenceReport:
    n: int
    q: int
    middle_count: int
    neighbor_count: int
    deficit: int
    ratio_identity_ok: bool
    cyclic_excluded: bool
    noncyclic_excluded: bool


def nonexistence_certificate(n: int, q: int) -> NonexistenceReport:
    """Exact counting argument against optimal codes for even n.

    Every middle-dimension subspace needs a neighbor one level up or down,
    so an optimal code requires [2m m+1]_q + [2m m-1]_q to reach
    [2m m]_q; the deficit is strictly positive, and at least 2 except at
    (n, q) = (2, 2), which only rules out the cyclic variant there.
    """
    if n < 2 or n % 2:
        raise ValueError("certificate applies to even n >= 2")
    m = n // 2
    middle = gaussian(n, m, q)
    up = gaussian(n, m + 1, q)
    down = gaussian(n, m - 1, q)
    neighbors = up + down
    # [2m m]_q / (2 [2m m-1]_q) = (q^(m+1)-1) / (2 (q^m-1)), cross-multiplied
    ratio_ok = (up == down
                and middle * 2 * (q ** m - 1)
                == neighbors * (q ** (m + 1) - 1))
    deficit = middle - neighbors
    return NonexistenceReport(n, q, middle, neighbors, deficit, ratio_ok,
                              deficit >= 1, deficit >= 2)


def fixture_code_2_2() -> GraySequence:
    """The optimal non-cyclic (2;2)-subspace code, listed explicitly."""
    ctx = make_field(2, 1)
    items = (canonicalize([(1, 0)], 2, ctx),
             trivial_subspace(2, ctx),
             canonicalize([(0, 1)], 2, ctx),
             full_subspace(2, ctx),
             canonicalize([(1, 1)], 2, ctx))
    return GraySequence(2, None, ctx, items, False)


# ---------------------------------------------------------------------------
# Necklaces: W^n identified with GF(q^n), orbits under a primitive element.


def _ground(ctx_qn: FieldContext):
    base = ctx_qn.base
    if base is None or ctx_qn.degree < 2:
        raise ValueError("need an extension field context GF(q^n)")
    return base


def multiply_subspace(sub: CanonicalSubspace, ctx_qn: FieldContext,
                      elem: int) -> CanonicalSubspace:
    """The subspace {elem * w}, with rows read as GF(q^n) elements."""
    ground = _ground(ctx_qn)
    q = ground.q
    n = ctx_qn.degree
    if sub.ctx is not ground:
        raise ValueError("subspace field is not the extension's base")
    if sub.n != n:
        raise ValueError("ambient dimension does not match the extension")
    if not 1 <= elem < ctx_qn.q:
        raise ValueError("multiplier must lie in 1..%d" % (ctx_qn.q - 1))
    rows = [digits_of(ctx_qn.mul(undigits(r, q), elem), q, n)
            for r in sub.rows]
    return canonicalize(rows, n, ground)


def orbit_of(sub: CanonicalSubspace, ctx_qn: FieldContext):
    """[sub, alpha sub, alpha^2 sub, ...] up to the first repeat, alpha the
    primitive element of ctx_qn."""
    alpha = ctx_qn.primitive_index()
    orbit = [sub]
    cur = multiply_subspace(sub, ctx_qn, alpha)
    while cur != sub:
        orbit.append(cur)
        cur = multiply_subspace(cur, ctx_qn, alpha)
    return orbit


def necklace_decompose(dim: int, ctx_qn: FieldContext):
    """All necklaces of dim-dimensional subspaces of GF(q)^n, n the degree
    of ctx_qn, as orbit tuples sorted by representative.  Each orbit starts
    at its representative, its least member by rows, so orbit[t] is
    alpha^t times it."""
    seen = set()
    orbits = []
    for sub in enumerate_subspaces(ctx_qn.degree, dim, _ground(ctx_qn)):
        if pack_subspace(sub) in seen:
            continue
        orbit = orbit_of(sub, ctx_qn)
        seen.update(map(pack_subspace, orbit))
        t = min(range(len(orbit)), key=lambda i: orbit[i].rows)
        orbits.append(tuple(orbit[t:] + orbit[:t]))
    orbits.sort(key=lambda orbit: orbit[0].rows)
    return orbits


# ---------------------------------------------------------------------------
# Path search for the middle levels, n in {3, 5}.


def _candidates(subs, used, index_of):
    """(necklace, position) of the subs in unused necklaces, sorted by
    necklace, then rows."""
    out = []
    for sub in subs:
        i, t = index_of[pack_subspace(sub)]
        if i not in used:
            out.append((i, sub.rows, t))
    return [(i, t) for i, _, t in sorted(out)]


def search_necklace_path(ctx_qn: FieldContext) -> NecklacePath:
    """Deterministic backtracking for the middle-levels necklace path in
    P_q(n), n the degree of ctx_qn over GF(q)."""
    n = ctx_qn.degree
    if n not in (3, 5):
        raise ValueError("path search is implemented for n in {3, 5}")
    q = _ground(ctx_qn).q
    m = (n - 1) // 2
    levels = (necklace_decompose(m, ctx_qn),
              necklace_decompose(m + 1, ctx_qn))
    s = len(levels[0])
    assert len(levels[1]) == s
    size = q_number(n, q)
    # every member of both levels -> (necklace, position in its orbit);
    # keys of different dimensions never collide
    index_of = {}
    for orbits in levels:
        for i, orbit in enumerate(orbits):
            for t, member in enumerate(orbit):
                index_of[pack_subspace(member)] = (i, t)

    x0_orbit = levels[0][0]
    path = [(x0_orbit, 0)]      # (orbit, position) of each member
    used = ({0}, set())         # necklaces visited on each level

    def close(y_last):
        for ell in range(1, size):
            if (gcd(ell, size) == 1
                    and projective_adjacent(x0_orbit[ell], y_last)):
                return ell
        return None

    def extend():
        orbit, pos = path[-1]
        last = orbit[pos]
        if len(path) == 2 * s:
            return close(last) is not None
        level = len(path) % 2
        if level:
            subs = superspaces_of(last, last.k + 1)
        else:
            subs = subspaces_of(last, last.k - 1)
        for i, t in _candidates(subs, used[level], index_of):
            used[level].add(i)
            path.append((levels[level][i], t))
            if extend():
                return True
            path.pop()
            used[level].discard(i)
        return False

    if not extend():
        raise RuntimeError("necklace path search exhausted at n=%d q=%d; "
                           "this contradicts the middle-levels existence "
                           "result" % (n, q))
    orbit, pos = path[-1]
    ell = close(orbit[pos])
    return NecklacePath(tuple(o[p:] + o[:p] for o, p in path), ell)


def _expand(orbits, ell, start=0):
    """Each orbit's alpha^(t ell) multiple, block by block, t >= start."""
    size = len(orbits[0])
    return [orbit[t * ell % size] for t in range(start, size)
            for orbit in orbits]


def expand_path(path: NecklacePath) -> GraySequence:
    """Concatenate L, alpha^ell L, ..., alpha^((N-1) ell) L in P_q(n), with
    n and GF(q) read off the first member."""
    if len({len(orbit) for orbit in path.orbits}) != 1:
        raise ValueError("visited necklaces have unequal orbit sizes")
    x0 = path.orbits[0][0]
    return GraySequence(x0.n, None, x0.ctx,
                        tuple(_expand(path.orbits, path.ell)), True)


# ---------------------------------------------------------------------------
# Full-space constructions for n = 1, 3, 5.


def build_full_n1(ctx: FieldContext) -> GraySequence:
    items = (trivial_subspace(1, ctx), full_subspace(1, ctx))
    return GraySequence(1, None, ctx, items, True)


def build_full_n3(ctx: FieldContext) -> GraySequence:
    """Middle levels plus W^0 and W^3 spliced at odd position 1."""
    mid = expand_path(search_necklace_path(extend_field(ctx, 3))).items
    assert mid[0].k == 1
    items = (trivial_subspace(3, ctx), mid[0], mid[1], full_subspace(3, ctx))
    items += tuple(mid[p] for p in range(len(mid) - 1, 1, -1))
    return GraySequence(3, None, ctx, items, True)


def build_full_n5(ctx: FieldContext) -> GraySequence:
    """The (5;q) construction: reversal splicing around the first blocks."""
    ctx_qn = extend_field(ctx, 5)
    path = search_necklace_path(ctx_qn)
    xs, ys = path.orbits[0::2], path.orbits[1::2]
    s = len(xs)
    ell = path.ell
    meet = orbit_of(intersect(xs[0][0], xs[1][0]), ctx_qn)
    join = orbit_of(subspace_sum(ys[0][0], ys[1][0]), ctx_qn)
    assert meet[0].k == 1 and join[0].k == 4

    # L' = X_0, X_0^X_1, X_1, Y_0, Y_0+Y_1, Y_1, X_2, Y_2, ..., X_{s-1}, Y_{s-1}
    lprime = [xs[0], meet, xs[1], ys[0], join, ys[1]]
    for i in range(2, s):
        lprime.extend((xs[i], ys[i]))

    # L* replaces the first two blocks of the expansion
    lstar = [xs[0][0], meet[0], trivial_subspace(5, ctx), meet[ell],
             xs[0][ell]]
    for i in range(s - 1, 0, -1):
        lstar.extend((ys[i][0], xs[i][0]))
    lstar.extend((ys[0][0], join[0], full_subspace(5, ctx), join[ell],
                  ys[0][ell]))
    for i in range(1, s):
        lstar.extend((xs[i][ell], ys[i][ell]))
    return GraySequence(5, None, ctx, tuple(lstar + _expand(lprime, ell, 2)),
                        True)
