"""Enumerative coding for the simple Grassmannian Gray code.

encode maps an index m to the m-th subspace of the simple cyclic optimal
(n,k;q)-code without materializing the sequence; decode inverts it.  Both
walk the same three-case recursion the construction follows: a subspace
either is the base case, lies inside the hyperplane W^(n-1) (strip the
zero column), or is an extension of a (k-1)-dim base (peel off the
extending row and recurse on the base).

Placing the extension inside its block needs the block's closing class,
which depends on the base's successor in the (n-1,k-1)-code.  decode, the
plain reference, re-encodes that successor at every extension level and
tests its rows for membership one at a time (closing_class_index).
decode_fast returns identical indices with less work: its recursion hands
each level one vector spanning the successor modulo the base, read off
the base's own decoded block position, so the closing class costs a
single vector reduction and no successor is ever encoded; it also strips
all trailing zero columns in one step.  decode is the oracle decode_fast
is tested against; decode_via_dual and the command line use decode_fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count

from .field import FieldContext
from .grassmann_gray import (class_at_position, class_position,
                             closing_class_from_direction,
                             closing_class_index, _append_zero_col,
                             _class_digits, _nonpivot_columns, _rep_vector)
from .linalg import CanonicalSubspace, extend_subspace, simple_subspace
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


def _block_class(ctx, n, k, q, i, g2, jpos, base, memo):
    """Class index visited at position jpos of block i (and vice versa)."""
    width = q ** (n - k)
    if g2 == 1:
        return jpos
    succ = _encode(n - 1, k - 1, q, ctx, (i + 1) % g2, g2, memo)
    last = closing_class_index(base, succ)
    return class_at_position(last, width, jpos)


def _encode(n, k, q, ctx, m, g, memo):
    """The m-th item, as a subspace of ambient dimension n; g = [n k]_q.

    memo caches finished items by (n, k, m) within one top-level call:
    each extension level needs both a base and its successor, and without
    sharing those two chains the recursion doubles per level.
    """
    key = (n, k, m)
    hit = memo.get(key)
    if hit is not None:
        return hit
    zeros = 0
    while True:
        if k == 0 or k == n:
            inner = simple_subspace(n, k, ctx)
            break
        g2, g1 = gaussian_step_down(g, n, k, q)
        if m <= g1 - 1:
            n -= 1
            g = g1
            zeros += 1
            continue
        width = q ** (n - k)
        t = m - g1 + 1
        i = (t // width) % g2
        jpos = t % width
        base = _encode(n - 1, k - 1, q, ctx, i, g2, memo)
        c = _block_class(ctx, n, k, q, i, g2, jpos, base, memo)
        v = _rep_vector(base, _nonpivot_columns(base), c)
        inner = extend_subspace(_append_zero_col(base), v)
        break
    if zeros:
        inner = _append_zero_col(inner, zeros)
    memo[key] = inner
    return inner


def encode(params: CodecParams, m: int) -> CanonicalSubspace:
    """The m-th subspace of the simple (n,k;q) Gray code."""
    if not isinstance(m, int) or isinstance(m, bool):
        raise TypeError("index must be an int, not %s" % type(m).__name__)
    total = params.size
    if not 0 <= m < total:
        raise ValueError("index %d out of range [0, %d)" % (m, total))
    return _encode(params.n, params.k, params.q, params.ctx, m, total, {})


def _split_extension(rows, n):
    """Separate the unique row leaving the hyperplane from the rest."""
    special = None
    inner = []
    for r in rows:
        if r[n - 1]:
            if special is not None:
                raise ValueError("not a canonical extension matrix")
            special = r
        else:
            inner.append(r[:n - 1])
    assert special[n - 1] == 1
    return special, inner


def _last_nonzero(r):
    if r[-1]:
        return len(r) - 1
    try:
        return len(bytes(r).rstrip(b"\x00")) - 1
    except ValueError:
        return max(c for c, x in enumerate(r) if x)


def _extension_parts(ctx, n, rows):
    """The extending row and the canonical base left when it is removed."""
    v, inner_rows = _split_extension(rows, n)
    base = CanonicalSubspace(ctx, n - 1, tuple(inner_rows),
                             tuple(_leading_column(r) for r in inner_rows))
    return v, base


def _decode(n, k, q, ctx, rows, g, memo):
    while True:
        if k == 0 or k == n:
            return 0
        g2, g1 = gaussian_step_down(g, n, k, q)
        if all(r[n - 1] == 0 for r in rows):
            rows = [r[:n - 1] for r in rows]
            n -= 1
            g = g1
            continue
        break
    v, base = _extension_parts(ctx, n, rows)
    i = _decode(n - 1, k - 1, q, ctx, list(base.rows), g2, memo)
    width = q ** (n - k)
    c = _class_digits(v, _nonpivot_columns(base), q)
    if g2 == 1:
        jpos = c
    else:
        succ = _encode(n - 1, k - 1, q, ctx, (i + 1) % g2, g2, memo)
        last = closing_class_index(base, succ)
        jpos = width - 1 if c == last else class_position(last, c)
    return g1 + ((width * i + jpos - 1) % (width * g2))


def _unit(n, i):
    e = [0] * n
    e[i] = 1
    return e


def _class_step(sub, q, nonpiv, n, a, b):
    """The representative of class b minus that of class a, length n.

    Only the digits where a and b differ are visited, so one step to the
    next class touches O(1) columns on average.
    """
    x = [0] * n
    for r in nonpiv:
        if a == b:
            break
        a, da = divmod(a, q)
        b, db = divmod(b, q)
        x[r] = sub(db, da)
    return x


def _decode_fast(n, k, q, ctx, rows, want_next):
    """(index, x): the index of span(rows) in the (n,k) code and, when
    want_next is set, a vector x of length n that spans the successor
    (item index+1, cyclically) modulo the item itself.

    x is read off the item's own block position, so no successor is ever
    encoded.  One step inside a block the successor swaps the extending
    class for the next one (x is the difference of the two
    representatives), and a block change brings in class 0, the unit
    vector e_{top-1}.  The remaining cases are fixed subspaces:
    - the simple subspace is followed by item 1, the first item leaving
      W^k, so x = e_k;
    - the last item of the code is followed by the simple subspace, so
      x = e_{k-1};
    - the last item of a stripped level-top code is followed by the first
      item leaving W^top: block 0 at position 1, whose class is 1 for
      k = 1 and 2 otherwise (by the first case a simple base closes its
      block with class 1).
    """
    if k == 0 or k == n:
        return 0, None
    # no coefficient is carried per level, so all trailing zero columns
    # are stripped in one jump
    top = max(_last_nonzero(r) for r in rows) + 1
    if top == k:
        return 0, (_unit(n, k) if want_next else None)
    v, base = _extension_parts(ctx, top, rows)
    nonpiv = _nonpivot_columns(base)
    c = _class_digits(v, nonpiv, q)
    width = q ** (top - k)
    g1 = gaussian_product_tree(top - 1, k, q)
    g2 = gaussian_product_tree(top - 1, k - 1, q)
    need_last = g2 > 1 and (c != 0 or want_next)
    i, x = _decode_fast(top - 1, k - 1, q, ctx, base.rows, need_last)
    if need_last:
        last = closing_class_from_direction(base, x)
    if g2 == 1 or c == 0:
        jpos = c
    else:
        jpos = width - 1 if c == last else class_position(last, c)
    index = g1 + ((width * i + jpos - 1) % (width * g2))
    if not want_next:
        return index, None
    if i == 0 and jpos == 0:
        if top == n:
            return index, _unit(n, k - 1)
        x = _class_step(ctx.sub, q, range(k - 1, top), n, 0,
                        1 if k == 1 else 2)
        x[top] = 1
        return index, x
    if jpos == width - 1:
        return index, _unit(n, top - 1)
    c2 = jpos + 1 if g2 == 1 else class_at_position(last, width, jpos + 1)
    return index, _class_step(ctx.sub, q, nonpiv, n, c, c2)


def _leading_column(r):
    """Column of r's first nonzero entry; len(r) for a zero row."""
    return next(compress(count(), r), len(r))


def _check_input(params, W):
    """Reject a subspace of the wrong shape or field, or of rank below k.

    Nonzero rows with strictly increasing leading columns certify rank k.
    """
    if W.n != params.n or W.k != params.k:
        raise ValueError("subspace has parameters (%d, %d), codec expects "
                         "(%d, %d)" % (W.n, W.k, params.n, params.k))
    if W.ctx is not params.ctx:
        raise ValueError("field mismatch")
    last = -1
    for r in W.rows:
        lead = _leading_column(r)
        if not last < lead < len(r):
            raise ValueError("rows are not a row echelon basis of rank %d"
                             % W.k)
        last = lead


def decode(params: CodecParams, W: CanonicalSubspace) -> int:
    """Index of W in the simple (n,k;q) Gray code.

    W's rows must be nonzero with strictly increasing leading columns
    (ValueError otherwise).  The full canonical form is not checked, as
    that costs one canonicalize per call: a hand-built CanonicalSubspace
    whose rows are not the canonical matrix decodes to an unspecified
    index.  Subspaces from encode, canonicalize or parse_subspace are
    canonical.
    """
    _check_input(params, W)
    return _decode(params.n, params.k, params.q, params.ctx,
                   list(W.rows), params.size, {})


def decode_fast(params: CodecParams, W: CanonicalSubspace) -> int:
    """Index of W, as decode, without re-encoding any successor base.

    The closing class of every block comes from one successor direction
    carried up the recursion (see _decode_fast); decode is the reference.
    Input is checked as in decode, canonical form excepted.
    """
    _check_input(params, W)
    return _decode_fast(params.n, params.k, params.q, params.ctx, W.rows,
                        False)[0]


def _dual_params(params: CodecParams) -> CodecParams:
    return CodecParams(params.n, params.n - params.k, params.ctx)


def encode_via_dual(params: CodecParams, m: int) -> CanonicalSubspace:
    """encode on the smaller of the (n,k) and (n,n-k) problems.

    For 2k > n the index enumerates the dual Gray order: item m is the
    orthogonal complement of the m-th (n,n-k)-code element.
    """
    from .linalg import dual
    if 2 * params.k <= params.n:
        return encode(params, m)
    return dual(encode(_dual_params(params), m))


def decode_via_dual(params: CodecParams, W: CanonicalSubspace) -> int:
    """Inverse of encode_via_dual, through decode_fast."""
    from .linalg import dual
    if 2 * params.k <= params.n:
        return decode_fast(params, W)
    _check_input(params, W)
    return decode_fast(_dual_params(params), dual(W))
