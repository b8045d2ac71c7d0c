"""Enumerative coding for the simple Grassmannian Gray code.

encode maps an index m to the m-th subspace of the simple cyclic optimal
(n,k;q)-code without materializing the sequence; decode_fast inverts it.
Both follow the recursion the construction follows: an item is either the
simple subspace or, past its trailing zero columns, an extension of a
(k-1)-dim base of W^(top-1) (block i, the base's index, at position jpos)
by one row ending in 1 at column top-1.

In canonical form a placed row never changes, so the canonical matrix is
a list of levels, one extending row each, down to a simple subspace.
encode and decode_fast walk that list in two flat loops.  A top-down pass
fixes each level's top: encode reads (top, i, jpos) off the Gaussian
counts, decode_fast reads each row's top once, orders the rows by it and
checks the canonical-extension conditions.  A bottom-up pass then starts
from the simple subspace at the full width n and adds one row per level
with extend_subspace, keeping nothing beside the base: per level it
reads the class c and the block's closing class between the base's
pivots (_row_class), then the index or the row (_class_row).

The closing class depends on the base's successor.  Every level hands
up, with its row, the means to build one vector x spanning the item's
successor modulo the item from its block position (_next_direction): a
block with a successor builds the x of its base and reads its closing
class off it in one vector reduction, and no successor is ever encoded.

decode is the plain reference decode_fast is tested against: it strips
one zero column at a time, recurses once per extension level and takes
each closing class from closing_class_index on an explicitly encoded
successor.  Those encodes start from the decode's own bases and closing
rows and share what they build: each builds one level, O(k) in all.
decode_via_dual and the command line use decode_fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import ge, itemgetter

from .field import FieldContext
from .grassmann_gray import (class_at_position, class_position,
                             closing_class_index, _class_row,
                             _closing_class, _row_class)
from .linalg import (CanonicalSubspace, _check_entries, _without_row, dual,
                     extend_subspace, last_nonzero, leading_column,
                     simple_subspace)
from .qcombin import gaussian, gaussian_product_tree, gaussian_step_down


@dataclass(frozen=True)
class CodecParams:
    n: int
    k: int
    ctx: FieldContext

    def __post_init__(self):
        if not 0 <= self.k <= self.n:
            raise ValueError("need 0 <= k <= n")

    @property
    def q(self) -> int:
        return self.ctx.q

    @property
    def size(self) -> int:
        return gaussian(self.n, self.k, self.q)


def _encode(n, k, q, ctx, m, width_n=None, built=None):
    """(item, x): the m-th item of the (n,k) code, width_n (default n)
    wide, and a function x() giving a vector of length n that spans the
    successor (item m+1, cyclically) modulo the item, None for k = 0 or
    k = n.  built maps (n, k, m) to the (item, x) of each level known so
    far at this width; the top-down pass stops at the first one there.
    """
    width_n, built = width_n or n, {} if built is None else built
    x = None
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
            x = partial(_unit, n, k)
            break
        width = q ** (top - k)
        g2 = gaussian_product_tree(top - 1, k - 1, q)
        t = m - g1 + 1
        i = (t // width) % g2
        jpos = t % width
        levels.append((n, k, m, top, i, jpos, width, g2))
        n, k, m = top - 1, k - 1, i
    # bottom-up from the level found in built or the simple subspace;
    # every base has rows of width width_n, zero from its top on
    base, x = built.get((n, k, m)) or (simple_subspace(width_n, k, ctx), x)
    for n, k, m, top, i, jpos, width, g2 in reversed(levels):
        # a lone block (g2 = 1) runs in plain order and closes on width-1
        last = _closing_class(base, x()) if g2 > 1 else width - 1
        c = class_at_position(last, width, jpos)
        pivots = base.pivots
        x = partial(_next_direction, q, n, k, top, i, jpos, width, last,
                    pivots)
        base = extend_subspace(base, _class_row(c, pivots, top, width_n, q))
        built[n, k, m] = base, x
    return base, x


def encode(params: CodecParams, m: int) -> CanonicalSubspace:
    """The m-th subspace of the simple (n,k;q) Gray code."""
    if not isinstance(m, int) or isinstance(m, bool):
        raise TypeError("index must be an int, not %s" % type(m).__name__)
    total = params.size
    if not 0 <= m < total:
        raise ValueError("index %d out of range [0, %d)" % (m, total))
    return _encode(params.n, params.k, params.q, params.ctx, m)[0]


def _decode(n, k, q, ctx, W, g, built):
    """The index of W, zero from column n on, in the (n,k) code of size g;
    built is shared by the successor encodes of one decode (see _encode)."""
    while 0 < k < n:
        g2, g1 = gaussian_step_down(g, n, k, q)
        if any(map(itemgetter(n - 1), W.rows)):
            break
        n, g = n - 1, g1                    # strip a zero column
    else:
        return 0
    # the extending row is the one nonzero in column n-1; the base is W
    # without it, its rows, pivots, packed ints and pivot mask cut from W's
    (j, v), *more = [(j, r) for j, r in enumerate(W.rows) if r[n - 1]]
    base = _without_row(W, j)
    if more or v[n - 1] != 1 or any(map(v.__getitem__, base.pivots)):
        raise ValueError("not a canonical extension matrix")
    i = _decode(n - 1, k - 1, q, ctx, base, g2, built)
    width = q ** (n - k)
    c = _row_class(v, base.pivots, n - 1, q)
    if g2 == 1:
        last = width - 1
    else:
        succ, _ = _encode(n - 1, k - 1, q, ctx, (i + 1) % g2, W.n, built)
        last, u = closing_class_index(base, succ)
        # the successor encode one level up starts here, not below base
        built.setdefault((n - 1, k - 1, i), (base, lambda: u))
    jpos = class_position(last, width, c)
    return g1 + ((width * i + jpos - 1) % (width * g2))


def _unit(n, i):
    e = [0] * n
    e[i] = 1
    return e


def _next_direction(q, n, k, top, i, jpos, width, last, pivots):
    """A vector of length n spanning an item's successor modulo the item.

    The item extends a base of W^(top-1), with these pivots, by the class
    at position jpos of block i, and the block closes with class last.
    The successor, and so the vector, is:
    - for the simple subspace, item 1, the first item leaving W^k: e_k,
      which the walks write themselves where they reach it;
    - for the last item of the code, the simple subspace: e_{k-1};
    - for the last item of a stripped level-top code, the first item
      leaving W^top: block 0 at position 1, whose class is 1 for k = 1
      and 2 otherwise (by the first rule a simple base closes its block
      with class 1);
    - at a block change, class 0 of the next block: e_{top-1};
    - inside a block, the next class: its representative, equal modulo
      the item to the difference of the two representatives.
    """
    if i == 0 and jpos == 0:
        if top == n:
            return _unit(n, k - 1)
        return _class_row(1 if k == 1 else 2, range(k - 1), top + 1, n, q)
    if jpos == width - 1:
        return _unit(n, top - 1)
    return _class_row(class_at_position(last, width, jpos + 1), pivots, top,
                      n, q)


def _decode_fast(n, k, q, ctx, rows):
    """(index, x): the index of span(rows) in the (n,k) code and, as in
    _encode, a function x() giving a vector spanning the successor (item
    index+1, cyclically) modulo the item; the mirror of _encode.
    """
    if k == 0 or k == n:
        return 0, None
    width_n = n
    x = None
    # each level's extending row is the one with the level's top, so the
    # rows in descending order of top are the levels, top down
    tops = [last_nonzero(r) + 1 for r in rows]
    leads = list(map(leading_column, rows))
    order = sorted(range(k), key=tops.__getitem__, reverse=True)
    levels = []
    for depth, j in enumerate(order):
        top = tops[j]
        if top == k:
            x = partial(_unit, n, k)
            break
        v = rows[j]
        below = order[depth + 1:]
        if ((below and tops[below[0]] == top) or v[top - 1] != 1
                or any(map(v.__getitem__, map(leads.__getitem__, below)))):
            raise ValueError("not a canonical extension matrix")
        g2 = gaussian_product_tree(top - 1, k - 1, q)
        levels.append((n, k, top, j, g2))
        n, k = top - 1, k - 1
    # the rows left below the last level have tops <= k and pivots
    # 0..k-1, so they span W^k: the simple base reduces as they would
    base = simple_subspace(width_n, k, ctx)
    index = 0
    for n, k, top, j, g2 in reversed(levels):
        v = rows[j]
        pivots = base.pivots
        c = _row_class(v, pivots, top - 1, q)
        width = q ** (top - k)
        # as in _encode, a lone block closes on width-1
        last = _closing_class(base, x()) if g2 > 1 else width - 1
        jpos = class_position(last, width, c)
        i = index
        index = gaussian_product_tree(top - 1, k, q) + (
            (width * i + jpos - 1) % (width * g2))
        x = partial(_next_direction, q, n, k, top, i, jpos, width, last,
                    pivots)
        base = extend_subspace(base, v)
    return index, x


def _check_input(params, W):
    """Reject a subspace of the wrong shape or field, entries outside the
    field, or rank below k; return its rows' leading columns.

    Nonzero rows with strictly increasing leading columns certify rank k.
    """
    if W.n != params.n or W.k != params.k:
        raise ValueError("subspace has parameters (%d, %d), codec expects "
                         "(%d, %d)" % (W.n, W.k, params.n, params.k))
    if W.ctx is not params.ctx:
        raise ValueError("field mismatch")
    _check_entries(W.rows, params.q, W.n)
    leads = tuple(map(leading_column, W.rows))
    if any(map(ge, (-1,) + leads, leads + (W.n,))):
        raise ValueError("rows are not a row echelon basis of rank %d" % W.k)
    return leads


def decode(params: CodecParams, W: CanonicalSubspace) -> int:
    """Index of W in the simple (n,k;q) Gray code.

    W's rows must have length n, entries in range(q), be nonzero with
    strictly increasing leading columns, and at every extension level
    the one row leaving the hyperplane must end in 1 there and vanish on
    the pivot columns of the rows below it, as in the canonical matrix;
    anything else raises ValueError.  An echelon basis that passes these
    checks but is not the canonical matrix decodes to the index of the
    subspace it spans.  Subspaces from encode, canonicalize or
    parse_subspace are canonical.

    This is the reference: it encodes each block's successor base,
    starting from the bases it decoded and their closing rows, and
    recurses once per extension level, so near 990 levels, e.g. at
    (1100,1050,2), it raises RecursionError; use decode_fast there.
    """
    # packed rows and pivot mask are built anew: W's are not trusted
    W = CanonicalSubspace(W.ctx, W.n, tuple(W.rows), _check_input(params, W))
    return _decode(W.n, W.k, params.q, W.ctx, W, params.size, {})


def decode_fast(params: CodecParams, W: CanonicalSubspace) -> int:
    """Index of W, as decode, without re-encoding any successor base.

    The closing class of every block comes from the successor direction
    that the level below computes and hands up (see _decode_fast); decode
    is the reference.  Input is checked as in decode.
    """
    _check_input(params, W)
    return _decode_fast(params.n, params.k, params.q, params.ctx, W.rows)[0]


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
    _check_input(params, W)
    return decode_fast(_dual_params(params), dual(W))
