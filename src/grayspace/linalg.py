"""Matrices and subspaces over GF(q).

Matrices are tuples of rows; a row is a tuple of element indices (see
field.py).  A subspace is represented by its unique canonical matrix: the
reduced row echelon basis of the row span transformed by the recursive map
tau.  Canonical matrices are in row echelon form (leading coefficients
need not be 1), equal row spans give byte-identical canonical matrices, and
subspace equality is defined as equality of canonical matrices.

The 0 x n empty matrix is the canonical form of the trivial subspace.

Lane fields.  Over every field of characteristic 2 with q <= 256 and every
prime field with p < 128 the kernels rref and tau (and so canonicalize,
dual, subspace_sum, intersect and parse_subspace), reduce_vector (and so
contains) and stacked_rank, the scaling of scale_vector and
extend_subspace, and the new rows of extension_block work on packed rows:
one Python int per row, int.from_bytes(bytearray(row), "little"), so
column c is the byte lane at bits 8c..8c+7 and a row costs a few C-speed
operations, not one field call per entry.
- Scaling by f is bytes.translate with the 256-byte table e -> f*e, one
  table per (field, f), built the first time f is used.
- In characteristic 2, row addition is XOR.  GF(2) is the case where every
  multiplier is 1, so its loops read no table.
- In a prime field, rows add lane by lane and every lane that reached p
  then loses p: x -= (((x + (128-p)*ONES) & (0x80*ONES)) >> 7) * p, with
  ONES = 1 in every lane.  This holds as long as every lane stays below p
  between additions: two residues below p sum to at most 2p - 2 <= 252,
  so adding 128 - p sets bit 7 exactly when the sum reached p and no lane
  carries into its neighbour.
- rref and tau go row by row, not column by column: x & -x gives a row's
  lowest nonzero lane and x.bit_length() its top one, so neither scans
  empty columns.
An entry outside range(q) would spill into the next lane, and a row
longer than n past it, so rref, contains, canonicalize and parse_subspace
reject both (_check_entries).

Every other field takes the tuple path, one field call per entry and a
column loop in rref and tau: the odd extension fields (q = 9, 25, 27, ...,
243), whose addition works digit by digit, not lane by lane; the primes
131..251, whose sums overflow a byte; and every q > 256.  pack_subspace
keys a subspace by the rows it already holds: packed over a lane field,
tuples otherwise.

A CanonicalSubspace keeps its packed rows in the `packed` slot: filled by
canonicalize, dual and enumerate_subspaces, else built on first use; tuples
stay the form of every result and of the file format.
Zero columns added on the right leave every packed int as it is, so
_append_zero_col, extend_subspace and extension_block, which derive a
subspace by padding or by adding one row, pass the ints it shares with
its source on unchanged.  No other module reads or builds packed ints.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import combinations, compress, count, product

from .field import FieldContext, field_from_order


class CanonicalSubspace:
    """A k-dimensional subspace of GF(q)^n in canonical (tau) form."""

    __slots__ = ("ctx", "n", "k", "rows", "pivots", "packed")

    def __init__(self, ctx: FieldContext, n: int, rows, pivots, packed=None):
        self.ctx = ctx
        self.n = n
        self.rows = rows
        self.pivots = pivots
        self.k = len(rows)
        self.packed = packed    # lane fields: rows as ints, None until built

    def __eq__(self, other):
        return (isinstance(other, CanonicalSubspace)
                and self.ctx is other.ctx
                and self.n == other.n
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return "CanonicalSubspace(k=%d, n=%d, q=%d, rows=%r)" % (
            self.k, self.n, self.ctx.q, self.rows)


class _Lanes(dict):
    """Byte-lane arithmetic of one lane field (see the module docstring).

    self[f] is the translate table e -> f*e, built the first time f is
    used; p is the characteristic and neg_inv[a] = -1/a (0 for a = 0).
    """

    __slots__ = ("ctx", "p", "neg_inv")

    def __init__(self, ctx: FieldContext):
        super().__init__()
        self.ctx, self.p = ctx, ctx.p
        self.neg_inv = bytes([0] + [ctx.neg(ctx.inv(a))
                                    for a in range(1, ctx.q)])

    def __missing__(self, f):
        mul, q = self.ctx.mul, self.ctx.q
        table = self[f] = bytes([mul(f, e) for e in range(q)]) + bytes(256 - q)
        return table


@lru_cache(maxsize=None)
def _lanes(ctx: FieldContext):
    """ctx's _Lanes, built once per field; None for a tuple field."""
    if ctx.q <= 256 and (ctx.p == 2 or ctx.m == 1 and ctx.p < 128):
        return _Lanes(ctx)
    return None


def _check_entries(rows, q: int, n: int | None = None):
    """ValueError unless every entry of rows lies in range(q) and, if n is
    given, every row has length n.

    The distinct entries, collected at C speed, are few.
    """
    if n is not None and rows and set(map(len, rows)) != {n}:
        raise ValueError("rows must have length %d" % n)
    entries = set().union(*rows)
    if entries and not (0 <= min(entries) and max(entries) < q):
        raise ValueError("entries must lie in range(%d)" % q)


def _unpack(packed, n: int):
    return tuple([tuple(x.to_bytes(n, "little")) for x in packed])


def rref(rows, n: int, ctx: FieldContext):
    """Reduced row echelon form of the row span.

    Returns (rows, pivots); zero rows are dropped, leading coefficients are
    1 and are the only nonzero entries in their columns.  Rows must have
    length n and entries in range(q) (ValueError).
    """
    rows = list(rows)
    _check_entries(rows, ctx.q, n)
    lanes = _lanes(ctx)
    reduced, pivots = _rref(rows, n, ctx, lanes)
    if lanes is not None:
        reduced = list(_unpack(reduced, n))
    return reduced, pivots


def _rref(rows, n, ctx, lanes):
    """rref of checked rows: packed rows over a lane field, else tuples."""
    if lanes is not None:
        return _rref_lanes(map(_pack_row, rows), n, lanes)
    mul, sub, inv = ctx.mul, ctx.sub, ctx.inv
    work = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(n):
        piv = None
        for i in range(rank, len(work)):
            if work[i][col]:
                piv = i
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        row = work[rank]
        f = inv(row[col])
        if f != 1:
            work[rank] = row = [mul(f, x) for x in row]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                g = work[i][col]
                other = work[i]
                work[i] = [sub(x, mul(g, y)) for x, y in zip(other, row)]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return [tuple(r) for r in work[:rank]], tuple(pivots)


def leading_column(row) -> int:
    """Column of row's first nonzero entry; len(row) for a zero row."""
    return next(compress(count(), row), len(row))


def last_nonzero(row) -> int:
    """Column of row's last nonzero entry; -1 for a zero row."""
    if row and row[-1]:
        return len(row) - 1
    return len(row) - 1 - next(compress(count(), reversed(row)), len(row))


def _tau(work, n, ctx):
    """tau on the full-width rows of a full-rank rref matrix, from column
    n-1 down: it keeps the row span and the pivots, and its output is in
    row echelon form but not reduced.

    In each column the last unplaced row nonzero there is scaled to end in
    1, cleared from the other unplaced rows and placed; the rows keep their
    order.  Unplaced rows are zero right of the current column, so no row
    is ever cut or padded.
    """
    mul, sub, inv = ctx.mul, ctx.sub, ctx.inv
    unplaced = list(range(len(work)))
    for col in range(n - 1, -1, -1):
        if not unplaced:
            break
        hit = [i for i in unplaced if work[i][col]]
        if not hit:
            continue
        i = hit.pop()
        row = work[i]
        f = inv(row[col])
        if f != 1:
            row = work[i] = [mul(f, x) for x in row]
        for j in hit:
            g = work[j][col]
            work[j] = [sub(x, mul(g, y)) for x, y in zip(work[j], row)]
        unplaced.remove(i)
    return tuple(map(tuple, work))


def _rref_lanes(rows, n: int, lanes: _Lanes):
    """rref of packed rows, one row at a time: (rows, pivots).

    A row is cleared on its lowest nonzero lane by the basis row pivoted
    there, as long as there is one, and then scaled to lead with 1 and
    kept as the basis row of that lane.  Last, every row from the
    second-to-last up is cleared on the pivots below it.
    """
    inv, gf2 = lanes.ctx.inv, lanes.ctx.q == 2
    basis = {}              # bit of the pivot lane -> row
    for x in rows:
        while x:
            s = (x & -x).bit_length() - 1 & -8
            row = basis.get(s)
            if row is None:
                if x >> s & 255 != 1:
                    x = _scale_row(x, lanes[inv(x >> s & 255)], n)
                basis[s] = x
                break
            x = x ^ row if gf2 else _eliminate(x, (row,), (s >> 3,), lanes, n)
    pivots = [s >> 3 for s in sorted(basis)]
    out = [basis[c << 3] for c in pivots]
    for i in range(len(out) - 2, -1, -1):
        out[i] = _eliminate(out[i], out[i + 1:], pivots[i + 1:], lanes, n)
    return out, tuple(pivots)


def _tau_lanes(work, n: int, lanes: _Lanes):
    """_tau on the packed rows of work, one row at a time from the last.

    In the column loop a row is only ever cleared by a later row, the one
    placed on the column where the row's top lane is.  So each row, last
    first, is cleared on its top lane by the row placed there as long as
    there is one, then scaled to end in 1 and placed on its top lane: the
    loop's output, without a scan over the columns.
    """
    inv, gf2 = lanes.ctx.inv, lanes.ctx.q == 2
    placed = {}             # bit of the lane a row ends on -> row
    for i in range(len(work) - 1, -1, -1):
        x = work[i]
        s = x.bit_length() - 1 & -8
        while s in placed:
            row = placed[s]
            x = x ^ row if gf2 else _eliminate(x, (row,), (s >> 3,), lanes, n)
            s = x.bit_length() - 1 & -8
        if x >> s != 1:
            x = _scale_row(x, lanes[inv(x >> s)], n)
        work[i] = placed[s] = x
    return tuple(work)


def _canonical(work, pivots, n, ctx, lanes):
    """The CanonicalSubspace of the full-rank rref matrix work, a list of
    packed rows over a lane field and of rows otherwise."""
    if lanes is None:
        return CanonicalSubspace(ctx, n, _tau(work, n, ctx), pivots)
    packed = _tau_lanes(work, n, lanes)
    return CanonicalSubspace(ctx, n, _unpack(packed, n), pivots, packed)


def canonicalize(rows, n: int, ctx: FieldContext) -> CanonicalSubspace:
    """Canonical subspace spanned by arbitrary row vectors (rank deduced).

    Rows of another length than n and entries outside range(q) raise
    ValueError.  Over a lane field the result's packed slot is filled.
    """
    rows = list(rows)
    _check_entries(rows, ctx.q, n)
    lanes = _lanes(ctx)
    return _canonical(*_rref(rows, n, ctx, lanes), n, ctx, lanes)


def trivial_subspace(n: int, ctx: FieldContext) -> CanonicalSubspace:
    return CanonicalSubspace(ctx, n, (), ())


def simple_subspace(n: int, k: int, ctx: FieldContext) -> CanonicalSubspace:
    """The subspace with canonical matrix [I_k | 0]."""
    rows = tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(k))
    return CanonicalSubspace(ctx, n, rows, tuple(range(k)))


def full_subspace(n: int, ctx: FieldContext) -> CanonicalSubspace:
    return simple_subspace(n, n, ctx)


def is_simple(a: CanonicalSubspace) -> bool:
    return a == simple_subspace(a.n, a.k, a.ctx)


def _check_ambient(a: CanonicalSubspace, b: CanonicalSubspace):
    if a.ctx is not b.ctx or a.n != b.n:
        raise ValueError("subspaces live in different ambient spaces")


def subspace_sum(a: CanonicalSubspace, b: CanonicalSubspace):
    _check_ambient(a, b)
    return canonicalize(a.rows + b.rows, a.n, a.ctx)


def intersect(a: CanonicalSubspace, b: CanonicalSubspace):
    """Intersection as the complement of the sum of the complements."""
    return dual(subspace_sum(dual(a), dual(b)))


def dual(a: CanonicalSubspace) -> CanonicalSubspace:
    """Orthogonal complement under the standard bilinear form.

    R is the rref of a's rows taken right to left, read back in the
    original column order: row i is 1 on its pivot p_i and nonzero only
    left of it.  The vectors e_f - sum_i R[i][f] e_(p_i), one per column f
    that is not a pivot, span the complement and are a reduced echelon
    matrix led by f already, so only tau is left to do.
    """
    ctx, n = a.ctx, a.n
    lanes = _lanes(ctx)
    reduced, pivots = rref([r[::-1] for r in a.rows], n, ctx)
    pivots = [n - 1 - p for p in pivots]
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    neg = ctx.neg
    vectors = []
    for f in free:
        vec = [0] * n
        vec[f] = 1
        for row, p in zip(reduced, pivots):
            vec[p] = neg(row[n - 1 - f])
        vectors.append(vec)
    if lanes is not None:
        vectors = list(map(_pack_row, vectors))
    return _canonical(vectors, tuple(free), n, ctx, lanes)


def contains(a: CanonicalSubspace, v) -> bool:
    """Membership of a coordinate vector in the row span."""
    if len(v) != a.n:
        raise ValueError("vector length %d does not match ambient %d"
                         % (len(v), a.n))
    _check_entries((v,), a.ctx.q)
    r = reduce_vector(a, v)
    return not any(r)


def _pack_row(row) -> int:
    # a bytearray is built from a row in about half the time of bytes
    return int.from_bytes(bytearray(row), "little")


def _scale_row(x: int, table: bytes, width: int) -> int:
    return int.from_bytes(x.to_bytes(width, "little").translate(table),
                          "little")


def _packed_rows(a: CanonicalSubspace):
    """a.packed, built on first use; lane fields only."""
    packed = a.packed
    if packed is None:
        # _pack_row inlined: this runs once per row of every packed item
        packed = a.packed = tuple([int.from_bytes(bytearray(r), "little")
                                   for r in a.rows])
    return packed


def _eliminate(x, rows, pivots, lanes: _Lanes, width: int) -> int:
    """x minus the multiples of rows that clear x on their pivot lanes.

    rows are packed echelon rows of at most width lanes, each nonzero on
    its pivot; the multiplier of a row is -e/lead, e being x's entry and
    lead the row's entry on the pivot.
    """
    if lanes.ctx.q == 2:
        # every multiplier is 1: no table is read
        for row, c in zip(rows, pivots):
            if x >> (c << 3) & 1:
                x ^= row
        return x
    neg_inv, p = lanes.neg_inv, lanes.p
    if p != 2:
        ones = (1 << (width << 3)) // 255       # 1 in each of width lanes
        low, high = (128 - p) * ones, ones << 7
    for row, c in zip(rows, pivots):
        s = c << 3
        e = x >> s & 255
        if e:
            f = lanes[neg_inv[row >> s & 255]][e]
            if f != 1:
                row = int.from_bytes(row.to_bytes(width, "little")
                                     .translate(lanes[f]), "little")
            if p == 2:
                x ^= row
            else:
                x += row
                x -= ((x + low & high) >> 7) * p
    return x


def reduce_vector(a: CanonicalSubspace, v):
    """Eliminate v against the echelon rows; zero iff v is in the span.

    a's rows may be longer than v if they are zero past it.
    """
    ctx = a.ctx
    lanes = _lanes(ctx)
    if lanes is not None:
        x = _eliminate(_pack_row(v), _packed_rows(a), a.pivots, lanes, a.n)
        return list(x.to_bytes(len(v), "little"))
    mul, sub, inv = ctx.mul, ctx.sub, ctx.inv
    v = list(v)
    for row, p in zip(a.rows, a.pivots):
        c = v[p]
        if c:
            f = mul(c, inv(row[p]))
            v = [sub(x, mul(f, y)) if y else x for x, y in zip(v, row)]
    return v


def stacked_rank(a: CanonicalSubspace, b: CanonicalSubspace) -> int:
    """rank([A; B]), the dimension of the sum of A and B."""
    _check_ambient(a, b)
    ctx = a.ctx
    lanes = _lanes(ctx)
    if lanes is not None:
        # A's rows, then B's rows independent of them, each pivoted on its
        # lowest nonzero lane
        rows, pivots = list(_packed_rows(a)), list(a.pivots)
        for x in _packed_rows(b):
            x = _eliminate(x, rows, pivots, lanes, a.n)
            if x:
                rows.append(x)
                pivots.append((x & -x).bit_length() - 1 >> 3)
        return len(rows)
    return len(_rref(a.rows + b.rows, a.n, ctx, None)[1])


def grassmann_adjacent(a: CanonicalSubspace, b: CanonicalSubspace) -> bool:
    """Adjacency in the Grassmann graph: equal dims meeting in dim k-1.

    Canonical rows are independent and unique to the subspace, so two that
    share k-1 rows are adjacent exactly when their rows differ; only other
    pairs need a rank.  Packed rows, when both have them, hash faster.
    """
    _check_ambient(a, b)
    if a.k != b.k:
        return False
    ra, rb = a.packed, b.packed
    if ra is None or rb is None:
        ra, rb = a.rows, b.rows
    if len(set(ra + rb)) <= a.k + 1:
        return ra != rb
    return stacked_rank(a, b) == a.k + 1


def projective_adjacent(a: CanonicalSubspace, b: CanonicalSubspace) -> bool:
    """Adjacency in the projective-space graph: containment, dims differ by 1."""
    lo, hi = (a, b) if a.k <= b.k else (b, a)
    return hi.k - lo.k == 1 and stacked_rank(hi, lo) == hi.k


def scale_vector(ctx: FieldContext, v, f: int):
    """f times the vector v, as a tuple: one translate over a lane field."""
    lanes = _lanes(ctx)
    if lanes is not None:
        return tuple(bytes(v).translate(lanes[f]))
    mul = ctx.mul
    return tuple([mul(f, x) for x in v])


def _append_zero_col(sub: CanonicalSubspace,
                     count: int = 1) -> CanonicalSubspace:
    """sub padded with count zero columns; packed rows carry over as is."""
    pad = (0,) * count
    return CanonicalSubspace(sub.ctx, sub.n + count,
                             tuple(r + pad for r in sub.rows), sub.pivots,
                             sub.packed)


def extend_subspace(base: CanonicalSubspace, v) -> CanonicalSubspace:
    """Canonical form of base + span(v) for v already reduced against base.

    v must be zero on base's pivot columns and independent of it; the new
    row slots between existing rows by its leading column.
    """
    lead = leading_column(v)
    if lead == len(v) or any(map(v.__getitem__, base.pivots)):
        raise ValueError("vector must be reduced against the base and nonzero")
    ctx = base.ctx
    if ctx.q != 2:      # over GF(2) every nonzero entry is already 1
        trail = last_nonzero(v)
        if v[trail] != 1:
            v = scale_vector(ctx, v, ctx.inv(v[trail]))
    v = tuple(v)
    pos = bisect_left(base.pivots, lead)
    rows = base.rows[:pos] + (v,) + base.rows[pos:]
    pivots = base.pivots[:pos] + (lead,) + base.pivots[pos:]
    packed = base.packed
    if packed is not None:
        packed = packed[:pos] + (_pack_row(v),) + packed[pos:]
    return CanonicalSubspace(ctx, base.n, rows, pivots, packed)


def extension_block(base: CanonicalSubspace, digits, top: int, classes):
    """Yield base + span(v_c) for each class c of classes, in order.

    v_c is 1 in column top and has the base-q digits of c, lowest first, on
    the ascending columns digits; base must have no pivot there and be zero
    from top on (ValueError).  v_c ends in 1, so it is the new canonical
    row, slotted by its lead.  v and its int are stepped from class to
    class on the digits that differ, like an odometer.
    """
    ctx, n, rows, pivots = base.ctx, base.n, base.rows, base.pivots
    q, lane = ctx.q, _lanes(ctx) is not None
    packed = _packed_rows(base) if lane else ()
    if not set(pivots).isdisjoint(digits) or any(any(r[top:]) for r in rows):
        raise ValueError("vector must be reduced against the base and nonzero")
    v = [0] * n
    v[top] = 1
    x, a, splits = 1 << (top << 3), 0, {}
    for c in classes:
        b = c
        for r in digits:
            if a == b:
                break
            a, da = divmod(a, q)
            b, db = divmod(b, q)
            if da != db:
                v[r] = db
                x += db - da << (r << 3)
        a = c
        lead = (x & -x).bit_length() - 1 >> 3 if lane else leading_column(v)
        split = splits.get(lead)
        if split is None:
            pos = bisect_left(pivots, lead)
            split = splits[lead] = (
                rows[:pos], rows[pos:], pivots[:pos] + (lead,) + pivots[pos:],
                packed[:pos], packed[pos:])
        lo, hi, piv, plo, phi = split
        yield CanonicalSubspace(ctx, n, lo + (tuple(v),) + hi, piv,
                                plo + (x,) + phi if lane else None)


def enumerate_subspaces(n: int, k: int, ctx: FieldContext):
    """All k-dim subspaces of GF(q)^n as canonical subspaces.

    Enumerated one reduced-echelon pattern at a time, so the total count is
    an independent subspace-count oracle.
    """
    if k == 0:
        yield trivial_subspace(n, ctx)
        return
    q, lanes = ctx.q, _lanes(ctx)
    for pivots in combinations(range(n), k):
        pivot_set = set(pivots)
        free_cells = [(i, c) for i in range(k)
                      for c in range(pivots[i] + 1, n) if c not in pivot_set]
        for values in product(range(q), repeat=len(free_cells)):
            grid = [[0] * n for _ in range(k)]
            for i, p in enumerate(pivots):
                grid[i][p] = 1
            for (i, c), val in zip(free_cells, values):
                grid[i][c] = val
            if lanes is not None:
                grid = list(map(_pack_row, grid))
            yield _canonical(grid, pivots, n, ctx, lanes)


def subspaces_of(a: CanonicalSubspace, k: int):
    """All k-dim subspaces contained in a, in deterministic order."""
    ctx = a.ctx
    add, mul = ctx.add, ctx.mul
    out = []
    for combo in enumerate_subspaces(a.k, k, ctx):
        vectors = []
        for crow in combo.rows:
            vec = [0] * a.n
            for c, arow in zip(crow, a.rows):
                if c:
                    vec = [add(x, mul(c, y)) for x, y in zip(vec, arow)]
            vectors.append(tuple(vec))
        out.append(canonicalize(vectors, a.n, ctx))
    return out


def superspaces_of(a: CanonicalSubspace, k: int):
    """All k-dim subspaces containing a (computed through duals)."""
    return [dual(s) for s in subspaces_of(dual(a), a.n - k)]


def pack_subspace(a: CanonicalSubspace) -> tuple:
    """A hashable key for distinctness sets: the packed rows over a lane
    field, the rows otherwise.

    Keys compare subspaces of one ambient space and field; canonical rows
    are unique to the subspace, so keys are equal exactly when the
    subspaces are.
    """
    if _lanes(a.ctx) is not None:
        return _packed_rows(a)
    return a.rows


# -- textual format ---------------------------------------------------------
# first line "k n q", then k rows of n element indices.


def format_subspace(a: CanonicalSubspace) -> str:
    lines = ["%d %d %d" % (a.k, a.n, a.ctx.q)]
    for row in a.rows:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines)


def parse_subspace(text: str, ctx: FieldContext | None = None):
    """Parse the textual format; any basis is accepted and canonicalized.

    Returns (subspace, was_canonical).
    """
    lines = [ln for ln in text.strip().splitlines()]
    if not lines:
        raise ValueError("empty subspace block")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError("subspace header must be 'k n q'")
    k, n, q = (int(x) for x in header)
    if ctx is None:
        ctx = field_from_order(q)
    elif ctx.q != q:
        raise ValueError("field mismatch: header q=%d, context q=%d"
                         % (q, ctx.q))
    if len(lines) != k + 1:
        raise ValueError("expected %d rows, got %d" % (k, len(lines) - 1))
    rows = []
    for ln in lines[1:]:
        row = tuple(map(int, ln.split()))
        if len(row) != n:
            raise ValueError("bad subspace row %r" % (ln,))
        rows.append(row)
    sub = canonicalize(rows, n, ctx)    # rejects entries outside range(q)
    if sub.k != k:
        raise ValueError("stated dimension %d but rank is %d" % (k, sub.k))
    return sub, sub.rows == tuple(rows)
