"""Cyclic optimal Grassmannian Gray codes.

The recursive construction combines an (n-1,k;q)-code with an
(n-1,k-1;q)-code: every (k-1)-dim subspace of the hyperplane W^{n-1} is
extended by q^(n-k) one-dimensional steps outside the hyperplane, and the
(n-1,k;q)-code is spliced in at a compatible position.

`build_simple` is the fully specialized deterministic variant (simple
ambient spaces, explicit representative vectors, insertion offset 0,
shifted so the first element is simple); its output order is exactly what
the enumerative codec in codec.py reproduces.  `build_general` keeps the
construction's degrees of freedom and validates every proposed choice.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field as dfield
from functools import lru_cache
from itertools import accumulate, chain, repeat
from operator import mul

from .field import FieldContext, field_from_order
from .linalg import (CanonicalSubspace, contains, dual, extension_block,
                     grassmann_adjacent, intersect, is_simple, pack_subspace,
                     projective_adjacent, reduce_vector, scale_vector,
                     simple_subspace, format_subspace, parse_subspace)
from .qcombin import gaussian


class ConstraintViolation(Exception):
    """A choice source proposed something the construction forbids."""


@dataclass(frozen=True)
class GraySequence:
    """A subspace Gray code as an explicit item list.

    With k set, an (n,k;q)-Grassmannian code: k-dim items, consecutive ones
    adjacent in the Grassmann graph.  With k None, a code in the
    projective-space graph P_q(n): items of any dimension, consecutive ones
    nested with dimensions differing by one.
    """
    n: int
    k: int | None
    ctx: FieldContext
    items: tuple
    cyclic: bool

    @property
    def q(self) -> int:
        return self.ctx.q

    def __len__(self):
        return len(self.items)


# Class j of a base of W^(top-1) is represented in W^top by j's base-q
# digits, lowest first, on the base's nonpivot columns and 1 in column
# top-1.  j is converted to or from its whole digit string at once (a
# bytearray, its bytes for q = 256, a list for q > 256), which goes into
# a row with a 0 at each of the base's pivots and comes out without them.

_TO_ALNUM = bytes.maketrans(bytes(range(36)),
                            b"0123456789abcdefghijklmnopqrstuvwxyz")
_FROM_ALNUM = bytes.maketrans(_TO_ALNUM[:36], bytes(range(36)))
_FORMATS = {2: "b", 8: "o", 16: "x"}


@lru_cache(maxsize=None)
def _digit_table(q):
    """(q^t, the t digits of each r < q^t), t largest with q^t <= 4096."""
    table = one = [(bytearray if q <= 256 else list)((a,)) for a in range(q)]
    while len(table) * q <= 4096:
        table = [a + b for b in table for a in one]
    return len(table), table


def _class_row(c, pivots, top, n, q):
    """The representative of class c of a base with these sorted pivots,
    in n columns: c's digits (by format for q = 2, 8, 16, bytes for 256,
    else q^t at a time) on the nonpivots below top-1, 1 at top-1, 0 after."""
    w = top - 1 - len(pivots)
    fmt = _FORMATS.get(q)
    if fmt:
        row = bytearray((format(c, fmt) if c else "").zfill(w).encode()
                        [::-1].translate(_FROM_ALNUM))
    elif q == 256:
        row = bytearray(c.to_bytes(w, "little"))
    else:
        chunk, table = _digit_table(q)
        row = table[0][:0]
        while c:
            c, r = divmod(c, chunk)
            row += table[r]
        row.extend(bytes(w))            # pad, then cut to w digits
        del row[w:]
    for p in pivots:
        row.insert(p, 0)
    row.append(1)
    row.extend(bytes(n - top))
    return tuple(row)


def _row_class(v, pivots, stop, q):
    """The class whose digits v holds on the columns below stop that are
    not pivots; the inverse of _class_row."""
    d = (bytearray if q <= 256 else list)(v[:stop])
    for p in reversed(pivots):
        del d[p]
    if q <= 36:
        return int(d[::-1].translate(_TO_ALNUM) or b"0", q)
    if q == 256:
        return int.from_bytes(d, "little")
    return sum(map(mul, d, accumulate(repeat(q, len(d) - 1), mul,
                                      initial=1)))


# ---------------------------------------------------------------------------
# The specialized simple construction, streamed in codec order.
#
# Unrolled, the (n,k) code is the simple subspace and then, for top =
# k+1..n, the blocks over the (top-1,k-1) code's bases, each level's first
# item held to its end.  Items are kept n wide, zero from their top on, as
# in the codec: no level pads, and only the bases recurse (k deep).
#
# Within a block the classes cannot simply be visited as j = 0, 1, ...: the
# last class of each block and the first class of the next must share a
# vector, or the two extended subspaces meet only in dim k-2.  The
# deterministic rule used here opens every block with class 0 (e_{top-1}
# alone) and closes it with the class of e_{top-1} + x, where x is the
# next base's extra direction reduced against the current base.  That
# shared direction makes consecutive blocks adjacent, and the rule is local
# so the codec can recompute it from indices alone.  linalg.extension_block
# steps a block's new row from class to class like an odometer; the items
# of a block share the base's k-1 rows, so their pairs need no rank.


def closing_class_index(base: CanonicalSubspace, succ: CanonicalSubspace):
    """(c, u): the class c of the block-closing extension of base, given
    the next base, and the row u of succ that names it.

    Both bases live in W^(n-1) and meet in codimension 1 there.  Any row
    of succ outside base names the class, which is never 0 (the opening
    class); the last rows, most often the ones outside, are tried first.
    """
    for u in reversed(succ.rows):
        c = _closing_class(base, u)
        if c is not None:
            return c, u
    raise ValueError("successor base equals the current base")


def _closing_class(base: CanonicalSubspace, x):
    """The class x picks modulo base, or None when x lies in base: the
    digits between base's pivots of x reduced against base (whose rows may
    be longer than x if zero past it) and scaled to lead with 1."""
    x = reduce_vector(base, x)
    lead = next(filter(None, x), 0)     # x's leading entry
    if not lead:
        return None
    ctx = base.ctx
    if lead != 1:
        x = scale_vector(ctx, x, ctx.inv(lead))
    return _row_class(x, base.pivots, len(x), ctx.q)


def block_class_order(base: CanonicalSubspace, succ, width: int):
    """Visit order of the classes of one block of the simple code.

    With no distinct successor the order is plain 0..width-1; otherwise
    class 0 opens, the closing class goes last, the rest stay ascending.
    """
    if succ is None or succ == base:
        return list(range(width))
    last, _ = closing_class_index(base, succ)
    return [0] + [c for c in range(1, width) if c != last] + [last]


def class_position(last: int, width: int, c: int) -> int:
    """Position of class c inside [0, ascending middle, last]: width-1 for
    the closing class; the inverse of class_at_position."""
    if c == 0:
        return 0
    if c == last:
        return width - 1
    return c if c < last else c - 1


def class_at_position(last: int, width: int, j: int) -> int:
    """Class at position j of [0, ascending middle, last]: the closing
    class for j = width-1; the inverse of class_position."""
    if j == 0:
        return 0
    if j == width - 1:
        return last
    return j if j < last else j + 1


def iter_simple(n: int, k: int, ctx: FieldContext):
    """Stream the simple cyclic optimal (n,k;q)-code in index order."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    yield from _iter_levels(n, k, n, ctx)


def _iter_levels(top, k, n, ctx):
    """The simple (top,k) code, every item n wide and zero from top on."""
    yield simple_subspace(n, k, ctx)
    if k == 0:
        return
    for t in range(k + 1, top + 1):
        width = ctx.q ** (t - k)
        held = None
        bases = _iter_levels(t - 1, k - 1, n, ctx)
        first_base = prev = next(bases)
        for base in chain(bases, (first_base,)):
            items = extension_block(prev, t - 1,
                                    block_class_order(prev, base, width))
            if held is None:
                held = next(items)      # C*_0 closes the level
            yield from items
            prev = base
        yield held


def build_simple(n: int, k: int, ctx: FieldContext) -> GraySequence:
    return GraySequence(n, k, ctx, tuple(iter_simple(n, k, ctx)), True)


# ---------------------------------------------------------------------------
# General construction with explicit degrees of freedom.


class ChoiceSource:
    """Deterministic choices reproducing the specialized construction."""

    def extension_order(self, n, k, block_index, width, base, succ,
                        allowed_first, allowed_last):
        """Permutation of range(width): the class visit order for one block."""
        return block_class_order(base, succ, width)

    def insertion_index(self, n, k, period):
        return period - 1

    def insertion_offset(self, n, k, width):
        return 0


class RandomChoiceSource(ChoiceSource):
    """Uniform random choices within the construction's constraints."""

    def __init__(self, seed=None):
        self.rng = random.Random(seed)

    def extension_order(self, n, k, block_index, width, base, succ,
                        allowed_first, allowed_last):
        idx = list(range(width))
        if allowed_first is None and allowed_last is None:
            self.rng.shuffle(idx)
            return idx
        firsts = sorted(allowed_first) if allowed_first is not None else idx
        lasts = sorted(allowed_last) if allowed_last is not None else idx
        pairs = [(f, l) for f in firsts for l in lasts if f != l]
        f, l = self.rng.choice(pairs)
        middle = [t for t in idx if t != f and t != l]
        self.rng.shuffle(middle)
        return [f] + middle + [l]

    def insertion_index(self, n, k, period):
        return self.rng.randrange(period)

    def insertion_offset(self, n, k, width):
        return self.rng.randrange(width - 1) if width > 1 else 0


class ScriptedChoiceSource(ChoiceSource):
    """Choices read from a script mapping (n, k) to explicit decisions.

    Script values are dicts with optional keys "orders" (one permutation per
    block), "j" (insertion index) and "ell" (insertion offset); anything
    missing falls back to the specialized defaults.
    """

    def __init__(self, script):
        self.script = script

    def extension_order(self, n, k, block_index, width, base, succ,
                        allowed_first, allowed_last):
        entry = self.script.get((n, k), {})
        orders = entry.get("orders")
        if orders is None:
            return block_class_order(base, succ, width)
        if block_index >= len(orders):
            raise ConstraintViolation("script has no order for block %d"
                                      % block_index)
        return list(orders[block_index])

    def insertion_index(self, n, k, period):
        return self.script.get((n, k), {}).get("j", period - 1)

    def insertion_offset(self, n, k, width):
        return self.script.get((n, k), {}).get("ell", 0)


def _allowed_class_indices(prev_base, prev_rep, cur_base, top):
    """Class indices of cur_base whose class meets [prev_rep]_prev_base.

    The bases are consecutive in a Gray code of W^(top-1), so prev_base is
    their intersection plus one row u outside cur_base, and modulo
    cur_base the class [prev_rep]_prev_base falls into the q classes of
    prev_rep + eps*u, each read off the digits below column top-1.
    """
    ctx = cur_base.ctx
    add, mul = ctx.add, ctx.mul
    u = next(r for r in prev_base.rows if not contains(cur_base, r))
    return {_row_class(reduce_vector(
                cur_base, [add(x, mul(eps, y)) for x, y in zip(prev_rep, u)]),
                cur_base.pivots, top - 1, ctx.q)
            for eps in range(ctx.q)}


def build_general(n: int, k: int, ctx: FieldContext,
                  choice_source: ChoiceSource | None = None) -> GraySequence:
    """Run the construction with a pluggable choice source.

    Invalid proposals (a first/last class breaking the class-intersection
    chain, an out-of-range insertion) raise ConstraintViolation.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if choice_source is None:
        choice_source = ChoiceSource()
    items = _build_general(n, k, n, ctx, choice_source, {})
    return GraySequence(n, k, ctx, items, True)


def _build_general(top, k, n, ctx, source, cache):
    """The (top,k) code as a tuple of items n wide and zero from top on;
    the choice source sees the level as (top, k)."""
    key = (top, k)
    if key in cache:
        return cache[key]
    if k == 0 or k == top:
        items = cache[key] = (simple_subspace(n, k, ctx),)
        return items
    code_k = _build_general(top - 1, k, n, ctx, source, cache)        # C'
    bases = _build_general(top - 1, k - 1, n, ctx, source, cache)     # C''
    width = ctx.q ** (top - k)
    nb = len(bases)
    cstar = []
    prev_last_rep = first_rep = None
    for i, base in enumerate(bases):
        allowed_first = allowed_last = None
        if nb > 1:
            if i > 0:
                allowed_first = _allowed_class_indices(
                    bases[i - 1], prev_last_rep, base, top)
            if i == nb - 1:
                allowed_last = _allowed_class_indices(
                    bases[0], first_rep, base, top)
        succ = bases[(i + 1) % nb] if nb > 1 else None
        order = source.extension_order(top, k, i, width, base, succ,
                                       allowed_first, allowed_last)
        if (not all(isinstance(c, int) for c in order)
                or sorted(order) != list(range(width))):
            raise ConstraintViolation(
                "block %d order is not a permutation of the %d classes"
                % (i, width))
        if allowed_first is not None and order[0] not in allowed_first:
            raise ConstraintViolation(
                "block %d first class %d breaks the intersection chain"
                % (i, order[0]))
        if allowed_last is not None and order[-1] not in allowed_last:
            raise ConstraintViolation(
                "final block last class %d breaks the wraparound chain"
                % (order[-1],))
        block = list(extension_block(base, top - 1, order))
        # an item differs from its base in the one row that is nonzero at
        # column top-1: the representative of its class
        prev_last_rep = next(r for r in block[-1].rows if r[top - 1])
        if i == 0:
            first_rep = next(r for r in block[0].rows if r[top - 1])
        cstar.extend(block)

    period = len(code_k)
    j_ins = source.insertion_index(top, k, period)
    if not isinstance(j_ins, int) or not 0 <= j_ins < period:
        raise ConstraintViolation("insertion index %r out of range" % (j_ins,))
    ell = source.insertion_offset(top, k, width)
    if not isinstance(ell, int) or not 0 <= ell <= width - 2:
        raise ConstraintViolation("insertion offset %r out of range" % (ell,))
    if period >= 2:
        u = intersect(code_k[j_ins], code_k[(j_ins + 1) % period])
        i_ins = bases.index(u)
    else:
        i_ins = 0
    pos = i_ins * width + ell
    # C', rotated to start after item j_ins, goes in after cstar[pos]; the
    # successor level gets the result shifted by one, so the deterministic
    # choices reproduce the simple code exactly
    items = cache[key] = (*cstar[1:pos + 1], *code_k[j_ins + 1:],
                          *code_k[:j_ins + 1], *cstar[pos + 1:], cstar[0])
    return items


# ---------------------------------------------------------------------------
# Verification harness (uses only linalg primitives) and duality.  Both
# code families share it; k=None selects the projective-space graph.


@dataclass
class GrayReport:
    """What verify_gray found.  first_duplicate is the index of the first
    item equal to an earlier one, first_nonadjacent the index of the first
    item not adjacent to the item before it; None when there is none.
    """
    n: int
    k: int | None
    q: int
    cyclic: bool
    size: int
    expected_size: int
    duplicates: int
    adjacency_failures: int
    wraparound_ok: bool | None
    first_simple: bool
    ends_intersection_simple: bool | None
    failures: list = dfield(default_factory=list)
    first_duplicate: int | None = None
    first_nonadjacent: int | None = None

    @property
    def optimal(self) -> bool:
        return self.size == self.expected_size

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_gray_stream(items, n, k, ctx, cyclic=True,
                       require_optimal=True) -> GrayReport:
    """Check a streamed item sequence against the Gray-code definition.

    With k None the items may have any dimension, consecutive ones must be
    adjacent in P_q(n), and an optimal code lists every subspace of W^n.
    """
    if k is None:
        adjacent = projective_adjacent
        expected = sum(gaussian(n, d, ctx.q) for d in range(n + 1))
        size_failure = "size %d != total subspace count %d"
    else:
        adjacent = grassmann_adjacent
        expected = gaussian(n, k, ctx.q)
        size_failure = "size %d != [n k]_q = %d"
    seen = set()
    duplicates = 0
    adjacency_failures = 0
    first_duplicate = first_nonadjacent = None
    first = prev = None
    size = 0
    failures = []
    for item in items:
        if (item.n != n or (item.k != k and k is not None)
                or item.ctx is not ctx):
            failures.append("item %d has wrong parameters" % size)
            size += 1
            continue
        key = pack_subspace(item)
        if key in seen:
            duplicates += 1
            if first_duplicate is None:
                first_duplicate = size
        seen.add(key)
        if prev is not None and not adjacent(prev, item):
            adjacency_failures += 1
            if first_nonadjacent is None:
                first_nonadjacent = size
        if first is None:
            first = item
        prev = item
        size += 1
    wraparound_ok = None
    if cyclic and size > 1 and first is not None:
        wraparound_ok = adjacent(prev, first)
    first_simple = is_simple(first) if first is not None else False
    ends_simple = None
    if k and first is not None and size > 1:
        ends_simple = is_simple(intersect(first, prev))
    if duplicates:
        failures.append("%d duplicate subspaces (first: item %d)"
                        % (duplicates, first_duplicate))
    if adjacency_failures:
        failures.append("%d consecutive pairs not adjacent (first: items "
                        "%d and %d)" % (adjacency_failures,
                                        first_nonadjacent - 1,
                                        first_nonadjacent))
    if wraparound_ok is False:
        failures.append("last and first items not adjacent")
    if require_optimal and size != expected:
        failures.append(size_failure % (size, expected))
    return GrayReport(n, k, ctx.q, cyclic, size, expected, duplicates,
                      adjacency_failures, wraparound_ok, first_simple,
                      ends_simple, failures, first_duplicate,
                      first_nonadjacent)


def verify_gray(seq: GraySequence, require_optimal=True) -> GrayReport:
    return verify_gray_stream(seq.items, seq.n, seq.k, seq.ctx,
                              cyclic=seq.cyclic,
                              require_optimal=require_optimal)


def dual_code(seq: GraySequence) -> GraySequence:
    """Item-wise orthogonal complement: an (n, n-k; q) Gray sequence.

    Complements reverse containment, so a projective-space code (k None)
    maps to another one.
    """
    k = None if seq.k is None else seq.n - seq.k
    return GraySequence(seq.n, k, seq.ctx,
                        tuple(dual(item) for item in seq.items), seq.cyclic)


# ---------------------------------------------------------------------------
# File format: a header "GRAY n k q P cyclic" (Grassmannian code) or
# "PROJ n q P cyclic" (projective-space code, k None), then P subspace
# blocks in the linalg textual format separated by blank lines.


def write_gray_stream(f, n, k, ctx, items, count, cyclic=True):
    cyc = 1 if cyclic else 0
    if k is None:
        f.write("PROJ %d %d %d %d\n" % (n, ctx.q, count, cyc))
    else:
        f.write("GRAY %d %d %d %d %d\n" % (n, k, ctx.q, count, cyc))
    for item in items:
        f.write("\n")
        f.write(format_subspace(item))
        f.write("\n")


def write_gray_file(f, seq: GraySequence):
    write_gray_stream(f, seq.n, seq.k, seq.ctx, seq.items, len(seq.items),
                      seq.cyclic)


def read_gray_file(f) -> GraySequence:
    """Parse a GRAY or PROJ file; a PROJ file gives a sequence with k None.

    Blocks are split at whitespace-only lines, so CRLF line ends and
    trailing blanks are accepted.
    """
    chunks = [c for c in re.split(r"\n\s*\n", f.read()) if c.strip()]
    if not chunks:
        raise ValueError("empty file")
    head = chunks[0].strip().splitlines()
    header = head[0].split()
    kind = header[0]
    if kind not in ("GRAY", "PROJ"):
        raise ValueError("unrecognized file header")
    if len(header) != (6 if kind == "GRAY" else 5):
        raise ValueError("not a %s file" % kind)
    values = [int(x) for x in header[1:]]
    if kind == "PROJ":
        values.insert(1, None)
    n, k, q, count, cyc = values
    if not 0 <= (k or 0) <= n or count < 0 or cyc not in (0, 1):
        raise ValueError("%s header: need n >= 0, 0 <= k <= n, count >= 0 "
                         "and a cyclic flag of 0 or 1" % kind)
    if len(head) > 1:
        raise ValueError("malformed %s header block" % kind)
    ctx = field_from_order(q)
    items = tuple(parse_subspace(chunk, ctx)[0] for chunk in chunks[1:])
    if len(items) != count:
        raise ValueError("%s file: expected %d blocks, found %d"
                         % (kind, count, len(items)))
    return GraySequence(n, k, ctx, items, bool(cyc))
