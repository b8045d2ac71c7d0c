"""Matrices and subspaces over GF(q).

Matrices are tuples of rows; a row is a tuple of element indices (see
field.py).  A subspace is represented by its unique canonical matrix: the
reduced row echelon basis of the row span transformed by the recursive map
tau.  Canonical matrices are in row echelon form (leading coefficients
need not be 1), equal row spans give byte-identical canonical matrices, and
subspace equality is defined as equality of canonical matrices.

The 0 x n empty matrix is the canonical form of the trivial subspace.

Packed rows.  The kernels rref and tau (and so canonicalize, dual,
subspace_sum, intersect, parse_subspace and enumerate_subspaces),
reduce_vector (and so contains), stacked_rank and extension_block work on
one row form for every field: one Python int per row, column c in the
lane at bit c << sh.  sh is 3 for q <= 256, so a row is
int.from_bytes(bytearray(row), "little") and column c is the byte at bits
8c..8c+7; above 256 it is 4, 16-bit lanes, which hold every field up to
field.MAX_FIELD_SIZE.  The field's _Lanes holds the lane width and the
arithmetic; only row clearing (_clearer for one row, _eliminate for
several) and scaling differ from field to field:
- Scaling by f is bytes.translate with the 256-byte table e -> f*e for
  q <= 256, one table per (field, f), built the first time f is used;
  above 256 it goes entry by entry.
- Rows add lane by lane over the lanewise fields, those with byte lanes
  of characteristic 2 or prime below 128.  In characteristic 2 that is
  XOR, and over GF(2) every multiplier is 1, so no table is read.  Over
  a prime p, every lane of a sum that reached p then loses p:
  x -= (((x + (128-p)*ONES) & (0x80*ONES)) >> 7) * p, with ONES = 1 in
  every lane.  Two residues below p sum to at most 2p - 2 <= 252, so
  adding 128 - p sets bit 7 exactly when the sum reached p and no lane
  carries into its neighbour.
- Every other field adds entry by entry with field calls on the unpacked
  rows: the odd extension fields (q = 9, 25, 27, ..., 243), whose
  addition works digit by digit; the primes 131..251, whose sums
  overflow a byte; and every q > 256.  Their vectors reduce unpacked.
- Over a lanewise field a reduction (_eliminate) clears only the lanes
  where x meets the pivot mask, lowest first, one step per hit: an
  echelon row is zero below its pivot.
- rref and tau go row by row, not column by column: x & -x gives a row's
  lowest nonzero lane and x.bit_length() its top one, so neither scans
  empty columns.
An entry outside range(q) would spill into the next lane, and a row
longer than n past it, so rref, contains, canonicalize and parse_subspace
reject both (_check_entries).

A CanonicalSubspace keeps its packed rows in the `packed` slot (filled by
canonicalize, dual and enumerate_subspaces) and the bits of its pivot
lanes in `pivot_mask` (filled by canonicalize and simple_subspace), each
else built on first use; tuples stay the form of every result and of the
file format.  pack_subspace keys a subspace by its packed rows.  The codes
are built n wide: a subspace of W^top is kept in all n columns, zero from
column top on, so no level pads its items.  extend_subspace and
extension_block, which add one row, and _without_row, which removes one
for the reference decode, pass on the ints the two subspaces share and
set or clear the row's lane in the mask.  No other module reads or builds
packed ints.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import combinations, compress, count, product
from struct import pack, unpack

from .field import FieldContext, field_from_order


class CanonicalSubspace:
    """A k-dimensional subspace of GF(q)^n in canonical (tau) form."""

    __slots__ = ("ctx", "n", "k", "rows", "pivots", "packed", "pivot_mask")

    def __init__(self, ctx, n, rows, pivots, packed=None, pivot_mask=None):
        self.ctx = ctx
        self.n = n
        self.rows = rows
        self.pivots = pivots
        self.k = len(rows)
        self.packed = packed    # rows as ints, None until built
        self.pivot_mask = pivot_mask    # bits of the pivot lanes, likewise

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
    """The packed-row arithmetic of one field (see the module docstring).

    sh is 3 (byte lanes) for q <= 256 and 4 (16-bit lanes) above, and
    mask holds one lane's bits.  lanewise tells whether rows add lane by
    lane (XOR in characteristic 2, the SWAR sum of a prime below 128, byte
    lanes only) or entry by entry; over a lanewise field neg_inv[a] = -1/a
    (0 for a = 0).  For q <= 256, self[f] is the translate table e -> f*e,
    built the first time f is used.
    """

    __slots__ = ("ctx", "p", "sh", "mask", "lanewise", "neg_inv")

    def __init__(self, ctx: FieldContext):
        super().__init__()
        q = ctx.q
        self.ctx, self.p = ctx, ctx.p
        self.sh = 3 if q <= 256 else 4
        self.mask = (1 << (1 << self.sh)) - 1
        self.lanewise = q <= 256 and (ctx.p == 2 or ctx.m == 1 and q < 128)
        if self.lanewise:
            self.neg_inv = bytes([0] + [ctx.neg(ctx.inv(a))
                                        for a in range(1, q)])

    def __missing__(self, f):
        mul, q = self.ctx.mul, self.ctx.q
        table = self[f] = bytes([mul(f, e) for e in range(q)]) + bytes(256 - q)
        return table

    def pack(self, row) -> int:
        """row as one int, entry c in lane c."""
        if self.sh == 3:
            return int.from_bytes(bytearray(row), "little")
        return int.from_bytes(pack("<%dH" % len(row), *row), "little")

    def unpack(self, x: int, n: int) -> tuple:
        """The first n entries of the packed row x."""
        if self.sh == 3:
            return tuple(x.to_bytes(n, "little"))
        return unpack("<%dH" % n, x.to_bytes(2 * n, "little"))

    def scale(self, x: int, f: int, n: int) -> int:
        """f times the packed row x of n lanes."""
        if self.sh == 3:
            return int.from_bytes(x.to_bytes(n, "little").translate(self[f]),
                                  "little")
        mul = self.ctx.mul
        return self.pack([mul(f, e) for e in self.unpack(x, n)])


@lru_cache(maxsize=None)
def _lanes(ctx: FieldContext) -> _Lanes:
    """ctx's _Lanes, built once per field."""
    return _Lanes(ctx)


def _check_entries(rows, q: int, n: int | None = None):
    """ValueError unless every entry of rows lies in range(q) and, if n is
    given, every row has length n; TypeError for an entry that is not an
    int.

    The distinct entries, collected at C speed, are few.
    """
    if n is not None and rows and set(map(len, rows)) != {n}:
        raise ValueError("rows must have length %d" % n)
    entries = set().union(*rows)
    # a float, Fraction or other number among ints makes their sum one
    if type(sum(entries)) is not int:
        raise TypeError("entries must be ints")
    if entries and not (0 <= min(entries) and max(entries) < q):
        raise ValueError("entries must lie in range(%d)" % q)


def _pack_rows(rows, lanes: _Lanes) -> list:
    if lanes.sh == 3:
        # byte lanes inlined: this runs once per row of every packed item,
        # and a bytearray is built from a row in about half the time of
        # bytes
        return [int.from_bytes(bytearray(r), "little") for r in rows]
    return list(map(lanes.pack, rows))


def rref(rows, n: int, ctx: FieldContext):
    """Reduced row echelon form of the row span.

    Returns (rows, pivots); zero rows are dropped, leading coefficients are
    1 and are the only nonzero entries in their columns.  Rows must have
    length n and entries in range(q) (ValueError), and entries must be
    ints (TypeError).
    """
    rows = list(rows)
    _check_entries(rows, ctx.q, n)
    lanes = _lanes(ctx)
    reduced, pivots, _ = _rref(_pack_rows(rows, lanes), n, lanes)
    return [lanes.unpack(x, n) for x in reduced], pivots


def leading_column(row) -> int:
    """Column of row's first nonzero entry; len(row) for a zero row."""
    return next(compress(count(), row), len(row))


def last_nonzero(row) -> int:
    """Column of row's last nonzero entry; -1 for a zero row."""
    if row and row[-1]:
        return len(row) - 1
    return len(row) - 1 - next(compress(count(), reversed(row)), len(row))


def _rref(rows, n: int, lanes: _Lanes):
    """rref of packed rows, one row at a time: (rows, pivots, pivot mask).

    A row is cleared on its lowest nonzero lane by the basis row pivoted
    there, as long as there is one, and then scaled to lead with 1 and
    kept as the basis row of that lane.  Last, every row from the
    second-to-last up is cleared on the pivots below it.
    """
    inv, sh, lane = lanes.ctx.inv, lanes.sh, lanes.mask
    clear = _clearer(lanes.ctx, n)
    basis = {}              # pivot column -> row
    for x in rows:
        while x:
            c = (x & -x).bit_length() - 1 >> sh
            row = basis.get(c)
            if row is None:
                lead = x >> (c << sh) & lane
                if lead != 1:
                    x = lanes.scale(x, inv(lead), n)
                basis[c] = x
                break
            x = clear(x, row, c)
    pivots, mask = sorted(basis), 0
    out = [basis[c] for c in pivots]
    for i in range(len(out) - 1, -1, -1):
        out[i] = _eliminate(out[i], out[i + 1:], mask, lanes, n)
        mask |= lane << (pivots[i] << sh)
    return out, tuple(pivots), mask


def _tau(work: list, n: int, lanes: _Lanes):
    """tau on the packed rows of a full-rank rref matrix, in place: it
    keeps the row span and the pivots, and its output is in row echelon
    form but not reduced.

    tau goes from column n-1 down: in each column the last unplaced row
    nonzero there is scaled to end in 1, cleared from the other unplaced
    rows and placed.  A row is only ever cleared by a later row, the one
    placed on the column where the row's top lane is.  So each row, last
    first, is cleared on its top lane by the row placed there as long as
    there is one, then scaled to end in 1 and placed on its top lane: the
    column loop's output, without a scan over the columns.
    """
    inv, sh = lanes.ctx.inv, lanes.sh
    clear = _clearer(lanes.ctx, n)
    placed = {}             # column a row ends on -> row
    for i in range(len(work) - 1, -1, -1):
        x = work[i]
        c = x.bit_length() - 1 >> sh
        while c in placed:
            row = placed[c]
            x = clear(x, row, c)
            c = x.bit_length() - 1 >> sh
        last = x >> (c << sh)
        if last != 1:
            x = lanes.scale(x, inv(last), n)
        work[i] = placed[c] = x
    return tuple(work)


def _canonical(work, pivots, mask, n, lanes: _Lanes):
    """The CanonicalSubspace of the full-rank rref matrix work, a list of
    packed rows, with the given pivots and pivot mask (tau keeps both)."""
    packed = _tau(work, n, lanes)
    if lanes.sh == 3:
        # byte lanes inlined, as in _pack_rows
        rows = tuple([tuple(x.to_bytes(n, "little")) for x in packed])
    else:
        rows = tuple([lanes.unpack(x, n) for x in packed])
    return CanonicalSubspace(lanes.ctx, n, rows, pivots, packed, mask)


def canonicalize(rows, n: int, ctx: FieldContext) -> CanonicalSubspace:
    """Canonical subspace spanned by arbitrary row vectors (rank deduced).

    Rows of another length than n and entries outside range(q) raise
    ValueError, entries that are not ints TypeError.  The result's packed
    slot is filled.
    """
    rows = list(rows)
    _check_entries(rows, ctx.q, n)
    lanes = _lanes(ctx)
    return _canonical(*_rref(_pack_rows(rows, lanes), n, lanes), n, lanes)


def trivial_subspace(n: int, ctx: FieldContext) -> CanonicalSubspace:
    return CanonicalSubspace(ctx, n, (), ())


def simple_subspace(n: int, k: int, ctx: FieldContext) -> CanonicalSubspace:
    """The subspace [I_k | 0], its packed rows and pivot mask filled."""
    rows = tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(k))
    sh = _lanes(ctx).sh
    return CanonicalSubspace(ctx, n, rows, tuple(range(k)),
                             tuple(1 << (i << sh) for i in range(k)),
                             (1 << (k << sh)) - 1)


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
    matrix led by f already, so only tau is left to do.  R stays packed
    as the rref of the reversed rows left it, so R[i][f] is lane n-1-f of
    its row i; -R[i][f] goes into lane p_i of the vector, which starts as
    1 in lane f.
    """
    ctx, n = a.ctx, a.n
    lanes = _lanes(ctx)
    rows = [r[::-1] for r in a.rows]
    _check_entries(rows, ctx.q, n)
    reduced, pivots, _ = _rref(_pack_rows(rows, lanes), n, lanes)
    pivots = [n - 1 - p for p in pivots]
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    neg, sh, mask = ctx.neg, lanes.sh, lanes.mask
    vectors = []
    for f in free:
        at = (n - 1 - f) << sh
        x = 1 << (f << sh)
        for row, p in zip(reduced, pivots):
            x |= neg(row >> at & mask) << (p << sh)
        vectors.append(x)
    return _canonical(vectors, tuple(free), None, n, lanes)


def contains(a: CanonicalSubspace, v) -> bool:
    """Membership of a coordinate vector in the row span."""
    if len(v) != a.n:
        raise ValueError("vector length %d does not match ambient %d"
                         % (len(v), a.n))
    _check_entries((v,), a.ctx.q)
    r = reduce_vector(a, v)
    return not any(r)


def _packed_rows(a: CanonicalSubspace):
    """a.packed, built on first use."""
    packed = a.packed
    if packed is None:
        packed = a.packed = tuple(_pack_rows(a.rows, _lanes(a.ctx)))
    return packed


def _pivot_mask(a: CanonicalSubspace):
    """a.pivot_mask, built on first use."""
    if a.pivot_mask is None:
        lanes = _lanes(a.ctx)
        a.pivot_mask = sum(lanes.mask << (p << lanes.sh) for p in a.pivots)
    return a.pivot_mask


def _eliminate(x, rows, mask, lanes: _Lanes, width: int) -> int:
    """x minus the multiples of rows that clear x on their pivot lanes.

    rows are packed rows of at most width lanes in pivot order, each zero
    below its pivot and nonzero on it; mask has their pivot lanes' bits.
    Over a lanewise field only the lanes where x meets mask are cleared,
    lowest first, as a row changes x only from its pivot on; otherwise x is
    unpacked once and cleared row by row."""
    hits, sh, xor = x & mask, lanes.sh, lanes.ctx.q == 2
    if hits and not lanes.lanewise:
        return lanes.pack(_eliminate_entries(lanes.unpack(x, width), rows, [
            (r & -r).bit_length() - 1 >> sh for r in rows], lanes, width))
    if hits and not xor:    # over GF(2) every multiplier is 1: x ^= row
        clear = _clearer(lanes.ctx, width)
    while hits:
        low = hits & -hits
        row = rows[(mask & low - 1).bit_count() >> sh]
        x = x ^ row if xor else clear(x, row, low.bit_length() - 1 >> sh)
        hits = x & mask
    return x


def _eliminate_entries(v, rows, pivots, lanes: _Lanes, width: int) -> list:
    """_eliminate for a field whose rows add entry by entry, on the
    entries v of x, rows in any order; the result has len(v) entries."""
    mul, sub, inv = lanes.ctx.mul, lanes.ctx.sub, lanes.ctx.inv
    for row, c in zip(rows, pivots):
        if v[c]:
            row = lanes.unpack(row, width)
            f = mul(v[c], inv(row[c]))
            v = [sub(d, mul(f, y)) if y else d for d, y in zip(v, row)]
    return list(v)


@lru_cache(maxsize=None)
def _clearer(ctx: FieldContext, width: int):
    """clear(x, row, c): x minus the multiple -e/lead of row, e and lead
    being x's and row's entries on lane c, for rows of at most width lanes
    nonzero on lane c; the field's case and the constants of the prime
    lane sum are settled once per width."""
    lanes = _lanes(ctx)
    if ctx.q == 2:
        return lambda x, row, c: x ^ row    # every multiplier is 1
    if not lanes.lanewise:
        return lambda x, row, c: lanes.pack(_eliminate_entries(
            lanes.unpack(x, width), (row,), (c,), lanes, width))
    neg_inv, p = lanes.neg_inv, lanes.p
    ones = (1 << (width << 3)) // 255       # 1 in each of width lanes
    low, high = (128 - p) * ones, ones << 7

    def clear(x, row, c):
        s = c << 3
        f = lanes[neg_inv[row >> s & 255]][x >> s & 255]
        if f != 1:
            row = int.from_bytes(row.to_bytes(width, "little")
                                 .translate(lanes[f]), "little")
        if p == 2:
            return x ^ row
        x += row
        return x - ((x + low & high) >> 7) * p
    return clear


def reduce_vector(a: CanonicalSubspace, v):
    """Eliminate v against the echelon rows; zero iff v is in the span.

    a's rows may be longer than v if they are zero past it.  Entry-wise
    fields reduce v's entries as they are, with no packing round trip.
    """
    lanes, packed = _lanes(a.ctx), _packed_rows(a)
    if not lanes.lanewise:
        return _eliminate_entries(v, packed, a.pivots, lanes, a.n)
    # lanewise fields have byte lanes: packing inlined, as in _pack_rows
    x = _eliminate(int.from_bytes(bytearray(v), "little"), packed,
                   _pivot_mask(a), lanes, a.n)
    return list(x.to_bytes(len(v), "little"))


def stacked_rank(a: CanonicalSubspace, b: CanonicalSubspace) -> int:
    """rank([A; B]), the dimension of the sum of A and B."""
    _check_ambient(a, b)
    lanes = _lanes(a.ctx)
    # A's rows and B's rows independent of them, in pivot order, each
    # pivoted on its lowest nonzero lane (outside mask once cleared)
    rows, mask = list(_packed_rows(a)), _pivot_mask(a)
    for x in _packed_rows(b):
        x = _eliminate(x, rows, mask, lanes, a.n)
        if x:
            at = (x & -x).bit_length() - 1 >> lanes.sh << lanes.sh
            rows.insert((mask & (1 << at) - 1).bit_count() >> lanes.sh, x)
            mask |= lanes.mask << at
    return len(rows)


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
    """f times the vector v, as a tuple: one translate for q <= 256."""
    if ctx.q <= 256:
        return tuple(bytes(v).translate(_lanes(ctx)[f]))
    mul = ctx.mul
    return tuple([mul(f, x) for x in v])


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
    packed, mask, lanes = base.packed, base.pivot_mask, _lanes(ctx)
    if packed is not None:
        packed = packed[:pos] + (lanes.pack(v),) + packed[pos:]
    if mask is not None:
        mask |= lanes.mask << (lead << lanes.sh)
    return CanonicalSubspace(ctx, base.n, rows, pivots, packed, mask)


def _without_row(a: CanonicalSubspace, j: int) -> CanonicalSubspace:
    """a's rows but row j, with its pivot, packed row and mask lane cut."""
    lanes = _lanes(a.ctx)
    mask = _pivot_mask(a) ^ lanes.mask << (a.pivots[j] << lanes.sh)
    return CanonicalSubspace(a.ctx, a.n, *[t[:j] + t[j + 1:] for t in (
        a.rows, a.pivots, _packed_rows(a))], mask)


def extension_block(base: CanonicalSubspace, top: int, classes):
    """Yield base + span(v_c) for each class c of classes, in order.

    v_c is 1 in column top and has the base-q digits of c, lowest first, on
    base's nonpivot columns below top; base must be zero from top on
    (ValueError).  v_c ends in 1, so it is the new canonical row, slotted
    by its lead.  v and its int are stepped from class to class on the
    digits that differ, like an odometer.
    """
    ctx, n, rows, pivots = base.ctx, base.n, base.rows, base.pivots
    q, lanes = ctx.q, _lanes(ctx)
    sh, packed, mask = lanes.sh, _packed_rows(base), _pivot_mask(base)
    if any(any(r[top:]) for r in rows):
        raise ValueError("base must be zero from column %d on" % top)
    digits = sorted(set(range(top)).difference(pivots))
    v = [0] * n
    v[top] = 1
    x, a, splits = 1 << (top << sh), 0, {}
    for c in classes:
        b = c
        for r in digits:
            if a == b:
                break
            da, a = a % q, a // q       # cheaper than divmod on small ints
            db, b = b % q, b // q
            if da != db:
                v[r] = db
                x += db - da << (r << sh)
        a = c
        lead = (x & -x).bit_length() - 1 >> sh
        split = splits.get(lead)
        if split is None:
            pos = bisect_left(pivots, lead)
            split = splits[lead] = (
                rows[:pos], rows[pos:], pivots[:pos] + (lead,) + pivots[pos:],
                packed[:pos], packed[pos:], mask | lanes.mask << (lead << sh))
        lo, hi, piv, plo, phi, pmask = split
        yield CanonicalSubspace(ctx, n, lo + (tuple(v),) + hi, piv,
                                plo + (x,) + phi, pmask)


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
            yield _canonical(_pack_rows(grid, lanes), pivots, None, n, lanes)


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
    """A hashable key for distinctness sets: the packed rows.  Canonical
    rows are unique to the subspace, so keys (of one ambient space and
    field) are equal exactly when the subspaces are."""
    return _packed_rows(a)


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
    rows = [tuple(map(int, ln.split())) for ln in lines[1:]]
    # canonicalize rejects rows of another length and entries outside
    # range(q)
    sub = canonicalize(rows, n, ctx)
    if sub.k != k:
        raise ValueError("stated dimension %d but rank is %d" % (k, sub.k))
    return sub, sub.rows == tuple(rows)
