"""Oracles shared by the test modules, apart from the library's code."""

from bisect import bisect_left

from grayspace import linalg as L


def extend_subspace(base, v):
    """Canonical form of base + span(v) for v already reduced against base.

    v must be zero on base's pivot columns and independent of it; scaled
    to end in 1, it is the new canonical row and slots between the rows by
    its leading column.  The result's packed rows and pivot mask are left
    to be built on first use.
    """
    lead = L.leading_column(v)
    if lead == len(v) or any(map(v.__getitem__, base.pivots)):
        raise ValueError("vector must be reduced against the base and nonzero")
    ctx = base.ctx
    trail = last_nonzero(v)
    if v[trail] != 1:
        f = ctx.inv(v[trail])
        v = [ctx.mul(f, e) for e in v]
    pos = bisect_left(base.pivots, lead)
    return L.CanonicalSubspace(
        ctx, base.n, base.rows[:pos] + (tuple(v),) + base.rows[pos:],
        base.pivots[:pos] + (lead,) + base.pivots[pos:])


def unpack_row(x, n, q):
    """The first n entries of a row packed as linalg packs rows: one byte
    per entry for q <= 256, two above."""
    bits = 8 if q <= 256 else 16
    return tuple(x >> (bits * c) & ((1 << bits) - 1) for c in range(n))


def last_nonzero(row):
    """Column of row's last nonzero entry; -1 for a zero row."""
    return max((c for c, e in enumerate(row) if e), default=-1)
