"""Exact arithmetic in small finite fields GF(p^m), with a fixed element order.

Elements are addressed by their index in [0, q): the element with index i has
the base-p digit expansion of i as its coefficient vector in the polynomial
basis of the field modulus (low digit = constant term).  Index 0 is the zero
element, index 1 is one.  The index therefore doubles as the rho-value used
whenever elements are serialized.

A FieldContext performs arithmetic directly on indices (`ctx.add`, `ctx.mul`,
...); this is the fast path used by the matrix and Gray-code machinery.
Prime fields compute modulo p.  An extension field keeps log/antilog tables
to the base of its least primitive element g, built once in O(q): `mul`,
`inv` and `neg` are lookups, and `add`/`sub` are XOR in characteristic 2
and Zech-logarithm lookups (log(1 + g^d)) in odd characteristic.

Extension fields can be built over any existing context (`extend_field`),
which is how GF(q^n) is realized as a degree-n extension of GF(q): its
elements are then in natural bijection with length-n coordinate vectors
over GF(q).  make_field(p, m) for m > 1 is extend_field(make_field(p, 1), m),
so each field GF(p^m) has one context however it is named.
"""

from __future__ import annotations

from functools import lru_cache

MAX_FIELD_SIZE = 65536  # size cap for constructed fields


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending (trial division)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def digits_of(value: int, base: int, length: int) -> tuple[int, ...]:
    digs = []
    for _ in range(length):
        value, r = divmod(value, base)
        digs.append(r)
    return tuple(digs)


def undigits(digs, base: int) -> int:
    value = 0
    for d in reversed(digs):
        value = value * base + d
    return value


# ---------------------------------------------------------------------------
# Polynomial arithmetic over an arbitrary coefficient context.
# Polynomials are lists of element indices, low-to-high, not necessarily
# trimmed; the coefficient context only needs add/sub/mul/inv and q.


def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(F, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    mul, add = F.mul, F.add
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = add(out[i + j], mul(ai, bj))
    return _ptrim(out)


def _pmod(F, a, f):
    """a mod f for monic f."""
    a = list(a)
    _ptrim(a)
    d = len(f) - 1
    sub, mul = F.sub, F.mul
    while len(a) > d:
        lead = a[-1]
        shift = len(a) - 1 - d
        if lead:
            for i in range(d):
                if f[i]:
                    a[shift + i] = sub(a[shift + i], mul(lead, f[i]))
        a.pop()
        _ptrim(a)
    return a


def _ppowmod(F, a, e, f):
    result = [1]
    base = _pmod(F, a, f)
    while e:
        if e & 1:
            result = _pmod(F, _pmul(F, result, base), f)
        base = _pmod(F, _pmul(F, base, base), f)
        e >>= 1
    return result


def _pgcd(F, a, b):
    a = _ptrim(list(a))
    b = _ptrim(list(b))
    while b:
        inv_lead = F.inv(b[-1])
        bm = [F.mul(c, inv_lead) for c in b]
        a, b = b, _pmod(F, a, bm)
    return a


def _is_irreducible(F, f, deg: int) -> bool:
    """Irreducibility of monic f of degree deg over the coefficient field F."""
    if deg == 1:
        return True
    x = [0, 1]
    if _ptrim(list(_ppowmod(F, x, F.q ** deg, f))) != x:
        return False
    for r in prime_factors(deg):
        h = _ppowmod(F, x, F.q ** (deg // r), f)
        diff = list(h) + [0] * max(0, 2 - len(h))
        diff[1] = F.sub(diff[1], 1)
        if len(_pgcd(F, diff, f)) > 1:  # shared factor of degree >= 1
            return False
    return True


def _first_irreducible(base, deg: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of given degree over base."""
    for t in range(base.q ** deg):
        f = list(digits_of(t, base.q, deg)) + [1]
        if _is_irreducible(base, f, deg):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")  # impossible


def _least_generator(q: int, power) -> int:
    """Least index of multiplicative order q - 1, where power(a, e) = a^e."""
    fac = prime_factors(q - 1)
    for a in range(1, q):
        if all(power(a, (q - 1) // r) != 1 for r in fac):
            return a
    raise AssertionError("no primitive element found")  # impossible


# ---------------------------------------------------------------------------


class FieldContext:
    """A finite field GF(p^m) operating on element indices.

    Attributes:
      p        characteristic
      q        field size
      m        degree over the prime field
      degree   degree over the immediate base field
      base     immediate base context (None for prime fields)
      modulus  monic modulus polynomial over the base, low-to-high indices
    """

    __slots__ = ("p", "q", "m", "degree", "base", "modulus",
                 "add", "sub", "mul", "neg", "inv", "_prim")

    def __init__(self, p=None, base=None, degree=1, modulus=None):
        if base is None:
            self.p = p
            self.q = p
            self.m = 1
            self.degree = 1
            self.base = None
            self.modulus = (0, 1)
            self.add = lambda a, b: (a + b) % p
            self.sub = lambda a, b: (a - b) % p
            self.neg = lambda a: (-a) % p
            self.mul = lambda a, b: (a * b) % p
            self.inv = self._prime_inv
            self._prim = _least_generator(p, lambda a, e: pow(a, e, p))
        else:
            self.base = base
            self.degree = degree
            self.p = base.p
            self.q = base.q ** degree
            self.m = base.m * degree
            self.modulus = tuple(modulus)
            self._init_extension_ops()

    def _prime_inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in GF(%d)" % self.q)
        return pow(a, self.p - 2, self.p)

    def _init_extension_ops(self):
        """Log/antilog tables to the base of the least primitive element g.

        exp holds g^0 .. g^(n-1) twice (n = q - 1) and then a zero tail.
        log[0] is the sentinel 2n, so a sum of two logs lands in the tail
        exactly when a factor is zero, and a log plus a Zech logarithm
        exactly when the sum is zero.
        """
        base, deg, q = self.base, self.degree, self.q
        bq, n = base.q, q - 1

        def power(a, e):
            return undigits(_ppowmod(base, list(digits_of(a, bq, deg)), e,
                                     self.modulus), bq)

        g = self._prim = _least_generator(q, power)
        cycle = self._powers(g)
        exp = cycle * 2 + [0] * (2 * n + 1)
        log = [2 * n] * q
        for i, a in enumerate(cycle):
            log[a] = i

        def inv(a):
            if a == 0:
                raise ZeroDivisionError("inverse of zero in GF(%d)" % q)
            return exp[n - log[a]]

        self.mul = lambda a, b: exp[log[a] + log[b]]
        self.inv = inv
        if self.p == 2:
            self.add = self.sub = lambda a, b: a ^ b
            self.neg = lambda a: a
            return
        # Zech logarithms: zech[d] = log(1 + g^d), doubled so that any
        # difference of two logs (plus n/2 for a negation) indexes it.
        # Adding 1 changes only the constant digit.
        badd, half = base.add, n // 2
        zech = [log[e - e % bq + badd(e % bq, 1)] for e in cycle] * 2

        def add(a, b):
            if a and b:
                la = log[a]
                return exp[la + zech[log[b] - la]]
            return a or b

        def sub(a, b):
            if a and b:
                la = log[a]
                return exp[la + zech[log[b] + half - la]]
            return a or exp[log[b] + half]

        self.add = add
        self.sub = sub
        self.neg = lambda a: exp[log[a] + half]

    def _powers(self, g):
        """[g^0, ..., g^(q-2)].  Times g is linear in an index's base-p
        digits: g*a = t_lo[a % p^h] + t_hi[a // p^h], the tables' digits
        in radix r = 2p - 1 (so they sum without a carry), and fix maps
        each half of a sum back to its digits mod p."""
        base, p, m, q, deg = self.base, self.p, self.m, self.q, self.degree
        h, r, bq = m // 2, 2 * p - 1, base.q
        low, step = p ** h, digits_of(g, bq, deg)

        def times_g(a):         # g*a, its base-p digits read in radix r
            a = _pmod(base, _pmul(base, step, digits_of(a, bq, deg)),
                      self.modulus)
            return undigits(digits_of(undigits(a, bq), p, m), r)
        t_lo = [times_g(a) for a in range(low)]
        t_hi = [times_g(low * a) for a in range(q // low)]
        fix = [0]               # fix[s]: s's radix-r digits mod p, in radix p
        for _ in range(m - h):  # m - h >= h digits serve both halves
            fix = [d % p + p * e for e in fix for d in range(r)]
        cycle, a, r_lo = [1] * (q - 1), 1, r ** h
        for i in range(1, q - 1):
            s = t_lo[a % low] + t_hi[a // low]
            a = cycle[i] = fix[s % r_lo] + low * fix[s // r_lo]
        return cycle

    # -- generic helpers ----------------------------------------------------

    def coeffs(self, index: int) -> tuple[int, ...]:
        """Base-p coefficient vector of the element with the given index."""
        return digits_of(index, self.p, self.m)

    def from_coeffs(self, coeffs) -> int:
        return undigits([c % self.p for c in coeffs], self.p)

    def primitive_index(self) -> int:
        """Index of the least element of multiplicative order q - 1."""
        return self._prim

    def name(self) -> str:
        return str(self.p) if self.m == 1 else "%d^%d" % (self.p, self.m)

    def __repr__(self):
        return "FieldContext(GF(%s))" % self.name()


def _check_size(base_q: int, degree: int) -> None:
    """Reject degree < 1 and base_q ** degree > MAX_FIELD_SIZE without
    building the power; callers run it before any trial division, so huge
    orders fail at once."""
    if degree < 1:
        raise ValueError("extension degree must be >= 1")
    if (degree * (base_q.bit_length() - 1) > MAX_FIELD_SIZE.bit_length()
            or base_q ** degree > MAX_FIELD_SIZE):
        size = base_q if degree == 1 else "%d^%d" % (base_q, degree)
        raise ValueError("field size %s exceeds bound %d"
                         % (size, MAX_FIELD_SIZE))


@lru_cache(maxsize=None)
def make_field(p: int, m: int) -> FieldContext:
    """GF(p^m) with the lexicographically least irreducible monic modulus.

    Identical (p, m) always return the same (cached) context, and for
    m > 1 it is extend_field(make_field(p, 1), m): one context per field.
    """
    _check_size(p, m)
    if p < 2 or prime_factors(p) != [p]:
        raise ValueError("field characteristic %r is not prime" % (p,))
    if m == 1:
        return FieldContext(p=p)
    return extend_field(make_field(p, 1), m)


@lru_cache(maxsize=None)
def extend_field(ctx: FieldContext, degree: int) -> FieldContext:
    """Degree-n extension of an existing field, GF(q) -> GF(q^n).

    Elements correspond to length-n coordinate vectors over the base field
    (low coordinate = constant term of the polynomial basis).
    """
    _check_size(ctx.q, degree)
    return FieldContext(base=ctx, degree=degree,
                        modulus=_first_irreducible(ctx, degree))


def field_from_order(q: int) -> FieldContext:
    """Field named by its size: q must be a prime power p^m."""
    if q < 2:
        raise ValueError("field order must be >= 2")
    _check_size(q, 1)
    p = prime_factors(q)[0]
    m = 0
    t = q
    while t % p == 0:
        t //= p
        m += 1
    if t != 1:
        raise ValueError("%d is not a prime power" % q)
    return make_field(p, m)


def parse_field_spec(spec: str) -> FieldContext:
    """Parse "q" or "p^m" into a field context."""
    spec = spec.strip()
    if "^" in spec:
        ps, ms = spec.split("^", 1)
        return make_field(int(ps), int(ms))
    return field_from_order(int(spec))
