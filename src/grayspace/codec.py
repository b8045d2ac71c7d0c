"""Enumerative coding for the simple Grassmannian Gray code.

encode maps an index m to the m-th subspace of the simple cyclic optimal
(n,k;q)-code without materializing the sequence; decode_fast inverts it.
An item is either the simple subspace or, past its trailing zero columns,
an extension of a (k-1)-dim base of W^(top-1) (block i, the base's index,
at position jpos) by one row ending in 1 at column top-1.  In canonical
form a placed row never changes, so the matrix is a list of such levels
above a simple subspace.

The walks hold the item they are at as a walk state: lists of pivots and
packed rows (linalg's lanes) and a pivot-mask int, changed in place by
linalg._put.  encode fixes each level's (top, i, jpos) off the Gaussian
counts top down, then goes up from the simple subspace putting each
level's class row (_class_row) into the state, which it wraps as one
CanonicalSubspace at the end.  decode_fast goes up the input's rows in
ascending order of top, checks each level against the rows below, reads
its class (_row_class) and puts the row into the state.  A block's
closing class depends on its base's successor: every level hands up a
function giving a packed vector that spans the item's successor modulo
the item (_next_direction), so no successor is ever encoded.

decode is the plain reference decode_fast is tested against: it pops the
levels off the state top-down, puts them back bottom-up and reads each
closing class off an explicitly encoded successor.  Those encodes start
from snapshots of the state and share what they build, one level each.
decode_via_dual and the command line use decode_fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import ge

from .field import FieldContext
from .grassmann_gray import (class_at_position, class_position, _class_row,
                             _closing_class, _row_class, closing_class_index)
from .linalg import (CanonicalSubspace, _check_entries, _lanes, _packed_rows,
                     _pivot_mask, _put, dual, leading_column)
from .qcombin import gaussian, gaussian_product_tree


@dataclass(frozen=True)
class CodecParams:
    n: int
    k: int
    ctx: FieldContext

    def __post_init__(self):
        if {type(self.n), type(self.k)} != {int}:
            raise TypeError("n and k must be ints")
        if not 0 <= self.k <= self.n:
            raise ValueError("need 0 <= k <= n")

    @property
    def q(self) -> int:
        return self.ctx.q

    @property
    def size(self) -> int:
        return gaussian(self.n, self.k, self.q)


def _encode(n, k, q, ctx, m, width_n=None, built=None):
    """(state, x): the m-th item of the (n,k) code as a walk state, width_n
    (default n) wide, and a function x() giving a packed vector spanning
    the successor (item m+1, cyclically) modulo the item, None for k = 0
    or k = n.  built, if given, maps (n, k, m) to the state, as tuples,
    and x of each level known so far: the top-down pass stops at the
    first one there, and each level built goes in."""
    width_n, keep, x = width_n or n, built is not None, None
    built, lanes = built if keep else {}, _lanes(ctx)
    # top-down: each level's base is item i of the (top-1, k-1) code
    levels = []
    while 0 < k < n and (n, k, m) not in built:
        # items below g1 = [top-1 k]_q lie inside W^(top-1), and none does
        # once top == k, so all trailing zero columns go in one jump
        top, g1 = n, gaussian_product_tree(n - 1, k, q)
        while m < g1:
            top -= 1
            g1 = gaussian_product_tree(top - 1, k, q)
        if top == k:
            x = partial(_unit, lanes, k)
            break
        width, g2 = q ** (top - k), gaussian_product_tree(top - 1, k - 1, q)
        t = m - g1 + 1
        i, jpos = (t // width) % g2, t % width
        levels.append((n, k, m, top, i, jpos, width, g2))
        n, k, m = top - 1, k - 1, i
    # bottom-up from the level found in built or the simple subspace
    (pivots, packed, mask), x = built.get((n, k, m)) or (
        (range(k), [1 << (i << lanes.sh) for i in range(k)],
         _unit(lanes, k) - 1), x)
    pivots, packed = list(pivots), list(packed)
    for n, k, m, top, i, jpos, width, g2 in reversed(levels):
        # a lone block (g2 = 1) runs in plain order and closes on width-1
        last = (_closing_class(lanes, pivots, packed, mask, x(), width_n)
                if g2 > 1 else width - 1)
        c = class_at_position(last, width, jpos)
        x = partial(_next_direction, lanes, n, k, top, i, jpos, width, last,
                    tuple(pivots))
        # a class row ends in 1 and leads on a nonpivot of the base
        mask = _put(lanes.pack(_class_row(c, pivots, top, q)), pivots, packed,
                    mask, lanes)
        if keep:
            built[n, k, m] = (tuple(pivots), tuple(packed), mask), x
    return (pivots, packed, mask), x


def encode(params: CodecParams, m: int) -> CanonicalSubspace:
    """The m-th subspace of the simple (n,k;q) Gray code."""
    if not isinstance(m, int) or isinstance(m, bool):
        raise TypeError("index must be an int, not %s" % type(m).__name__)
    total = params.size
    if not 0 <= m < total:
        raise ValueError("index %d out of range [0, %d)" % (m, total))
    n, ctx = params.n, params.ctx
    (pivots, packed, mask), _ = _encode(n, params.k, params.q, ctx, m)
    unpack = _lanes(ctx).unpack
    return CanonicalSubspace(ctx, n, tuple([unpack(v, n) for v in packed]),
                             tuple(pivots), tuple(packed), mask)


def _decode(W):
    """The index of W, re-wrapped by _check_input, in the (W.n, W.k) code;
    the successor encodes of one decode start from snapshots of its walk
    state and share the levels they build in built (see _encode)."""
    n, k, ctx, levels, lanes = W.n, W.k, W.ctx, [], _lanes(W.ctx)
    sh, lane, mask = lanes.sh, lanes.mask, _pivot_mask(W)
    pivots, packed = list(W.pivots), list(_packed_rows(W))
    while 0 < k < n:
        s = n - 1 << sh                     # column n-1 on, as no row
        if not max(packed) >> s:            # reaches past it
            n -= 1                          # strip a zero column
            continue
        # the extending row is the one nonzero in column n-1
        (j, v), *more = [(j, v) for j, v in enumerate(packed) if v >> s]
        mask ^= lane << (pivots.pop(j) << sh)
        if more or v >> s != 1 or v & mask:
            raise ValueError("not a canonical extension matrix")
        levels.append((n, k, packed.pop(j)))
        n, k = n - 1, k - 1
    q, index, built = ctx.q, 0, {}
    for n, k, v in reversed(levels):
        g2, width = gaussian_product_tree(n - 1, k - 1, q), q ** (n - k)
        c = _row_class(lanes.entries(v, n), pivots, n - 1, q)
        if g2 == 1:
            last = width - 1
        else:
            (_, succ, _), _ = _encode(n - 1, k - 1, q, ctx, (index + 1) % g2,
                                      W.n, built)
            last, u = closing_class_index((pivots, packed, mask), succ, lanes,
                                          W.n)
            # the successor encode one level up starts here
            built.setdefault((n - 1, k - 1, index), (
                (tuple(pivots), tuple(packed), mask), lambda u=u: u))
        jpos = class_position(last, width, c)
        index = gaussian_product_tree(n - 1, k, q) + (
            (width * index + jpos - 1) % (width * g2))
        mask = _put(v, pivots, packed, mask, lanes)
    return index


def _unit(lanes, i):
    """e_i, packed."""
    return 1 << (i << lanes.sh)


def _next_direction(lanes, n, k, top, i, jpos, width, last, pivots):
    """A packed vector spanning an item's successor modulo the item.

    The item extends a base of W^(top-1), with these pivots, by the class
    at position jpos of block i, and the block closes with class last.
    The successor, and so the vector, is:
    - for the simple subspace, item 1, leaving W^k: e_k (the walks write
      it themselves);
    - for the last item of the code, the simple subspace: e_{k-1};
    - for the last item of a stripped level-top code, the first item
      leaving W^top: block 0 at position 1, class 1 for k = 1 and 2
      otherwise (a simple base closes its block with class 1);
    - at a block change, class 0 of the next block: e_{top-1};
    - inside a block, the next class's representative.
    """
    if i == 0 and jpos == 0:
        if top == n:
            return _unit(lanes, k - 1)
        c, pivots, top = 1 if k == 1 else 2, range(k - 1), top + 1
    elif jpos == width - 1:
        return _unit(lanes, top - 1)
    else:
        c = class_at_position(last, width, jpos + 1)
    return lanes.pack(_class_row(c, pivots, top, lanes.ctx.q))


def _decode_fast(W):
    """(index, x): the index of W, re-wrapped by _check_input, in the
    (W.n, W.k) code and, as in _encode, a function x() giving a packed
    vector spanning the successor (item index+1, cyclically) modulo the
    item; the mirror of _encode."""
    if W.k == 0 or W.k == W.n:
        return 0, None
    q, lanes = W.ctx.q, _lanes(W.ctx)
    # each level's extending row is the one with the level's top, so the
    # rows in ascending order of top are the levels, bottom up, above a
    # simple subspace: up to the last row k (from 1) whose top is k, the
    # rows span W^k
    rows = sorted([((v.bit_length() - 1 >> lanes.sh) + 1, v)
                   for v in _packed_rows(W)])
    simple = max([k for k, (top, _) in enumerate(rows, 1) if top == k],
                 default=0)
    rows.append((W.n + 1, None))            # above the top level
    pivots, packed, mask, index = [], [], 0, 0
    x = partial(_unit, lanes, simple)
    for k, ((top, v), (above, _)) in enumerate(zip(rows, rows[1:]), 1):
        n = above - 1               # the level above has top n + 1
        if k > simple:
            if n < top or v >> (top - 1 << lanes.sh) != 1 or v & mask:
                raise ValueError("not a canonical extension matrix")
            c = _row_class(lanes.entries(v, top), pivots, top - 1, q)
            width = q ** (top - k)
            g2 = gaussian_product_tree(top - 1, k - 1, q)
            # as in _encode, a lone block closes on width-1
            last = (_closing_class(lanes, pivots, packed, mask, x(), W.n)
                    if g2 > 1 else width - 1)
            jpos = class_position(last, width, c)
            i, index = index, gaussian_product_tree(top - 1, k, q) + (
                (width * index + jpos - 1) % (width * g2))
            x = partial(_next_direction, lanes, n, k, top, i, jpos, width,
                        last, tuple(pivots))
        mask = _put(v, pivots, packed, mask, lanes)
    return index, x


def _check_input(params, W):
    """Reject a subspace of the wrong shape or field, entries outside the
    field, or rank below k (nonzero rows with strictly increasing leading
    columns certify rank k); return W re-wrapped, its pivots the rows'
    leading columns and its packed rows and pivot mask built anew, as W's
    own are not trusted."""
    if W.n != params.n or W.k != params.k:
        raise ValueError("subspace has parameters (%d, %d), codec expects "
                         "(%d, %d)" % (W.n, W.k, params.n, params.k))
    if W.ctx is not params.ctx:
        raise ValueError("field mismatch")
    _check_entries(W.rows, params.q, W.n)
    leads = tuple(map(leading_column, W.rows))
    if any(map(ge, (-1,) + leads, leads + (W.n,))):
        raise ValueError("rows are not a row echelon basis of rank %d" % W.k)
    return CanonicalSubspace(W.ctx, W.n, tuple(W.rows), leads)


def decode(params: CodecParams, W: CanonicalSubspace) -> int:
    """Index of W in the simple (n,k;q) Gray code.

    W's rows must have length n, entries in range(q), be nonzero with
    strictly increasing leading columns, and at every extension level
    the one row leaving the hyperplane must end in 1 there and vanish on
    the pivot columns of the rows below it, as in the canonical matrix;
    anything else raises ValueError.  An echelon basis that passes these
    checks but is not the canonical matrix decodes to the index of the
    subspace it spans.  Subspaces from encode, canonicalize or
    parse_subspace are canonical.  This is the reference: it reads each
    block's closing class off an encode of the block's successor base.
    """
    return _decode(_check_input(params, W))


def decode_fast(params: CodecParams, W: CanonicalSubspace) -> int:
    """Index of W, as decode, without re-encoding any successor base:
    each block's closing class comes from the successor direction the
    level below hands up (see _decode_fast).  Input is checked as in
    decode, the reference."""
    return _decode_fast(_check_input(params, W))[0]


def _dual_params(params: CodecParams) -> CodecParams:
    return CodecParams(params.n, params.n - params.k, params.ctx)


def encode_via_dual(params: CodecParams, m: int) -> CanonicalSubspace:
    """encode on the smaller of the (n,k) and (n,n-k) problems.

    For 2k > n the index enumerates the dual Gray order: item m is the
    orthogonal complement of the m-th (n,n-k)-code element.
    """
    if 2 * params.k <= params.n:
        return encode(params, m)
    return dual(encode(_dual_params(params), m))


def decode_via_dual(params: CodecParams, W: CanonicalSubspace) -> int:
    """Inverse of encode_via_dual, through decode_fast."""
    if 2 * params.k <= params.n:
        return decode_fast(params, W)
    return decode_fast(_dual_params(params), dual(_check_input(params, W)))
