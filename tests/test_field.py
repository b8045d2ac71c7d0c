import random
import time

import pytest

from grayspace.codec import CodecParams, decode_fast, encode
from grayspace.field import (_pmod, _pmul, digits_of, extend_field,
                             field_from_order, make_field, parse_field_spec,
                             undigits)
from grayspace.qcombin import gaussian


def check_field_axioms(ctx, trials=200, seed=7):
    rng = random.Random(seed)
    q = ctx.q
    for _ in range(trials):
        a = rng.randrange(q)
        b = rng.randrange(q)
        c = rng.randrange(q)
        assert ctx.add(a, b) == ctx.add(b, a)
        assert ctx.mul(a, b) == ctx.mul(b, a)
        assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b),
                                                    ctx.mul(a, c))
        assert ctx.add(a, 0) == a
        assert ctx.mul(a, 1) == a
        assert ctx.add(a, ctx.neg(a)) == 0
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3),
                                 (3, 2), (2, 4), (7, 1), (5, 2)])
def test_axioms(p, m):
    check_field_axioms(make_field(p, m))


def test_make_field_validation():
    with pytest.raises(ValueError):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        make_field(1, 3)


def test_known_moduli():
    # lexicographically least irreducible polynomials
    assert make_field(2, 2).modulus == (1, 1, 1)          # x^2+x+1
    assert make_field(2, 3).modulus == (1, 1, 0, 1)       # x^3+x+1
    assert make_field(3, 2).modulus == (1, 0, 1)          # x^2+1


def test_prime_field_is_mod_p():
    f7 = make_field(7, 1)
    assert f7.add(5, 4) == 2
    assert f7.mul(3, 5) == 1
    assert f7.inv(3) == 5
    assert f7.neg(2) == 5


def test_gf4_tables():
    f4 = make_field(2, 2)
    # 2 is x, 3 is x+1; x*x = x+1 under x^2+x+1
    assert f4.mul(2, 2) == 3
    assert f4.mul(2, 3) == 1
    assert f4.add(2, 3) == 1


def test_primitive_element():
    assert make_field(2, 1).primitive_index() == 1
    assert make_field(5, 1).primitive_index() == 2
    f8 = make_field(2, 3)
    a = f8.primitive_index()
    powers = set()
    cur = 1
    for _ in range(7):
        cur = f8.mul(cur, a)
        powers.add(cur)
    assert len(powers) == 7


def test_extend_field_tower():
    f4 = make_field(2, 2)
    f64 = extend_field(f4, 3)
    assert f64.q == 64
    assert f64.base is f4
    assert f64.degree == 3
    check_field_axioms(f64, trials=100)
    # the whole multiplicative group is generated
    a = f64.primitive_index()
    seen = set()
    cur = 1
    for _ in range(63):
        cur = f64.mul(cur, a)
        seen.add(cur)
    assert len(seen) == 63


def test_extend_prime_field():
    f2 = make_field(2, 1)
    f32 = extend_field(f2, 5)
    assert f32.q == 32 and f32.base is f2
    check_field_axioms(f32, trials=100)


def test_one_context_per_field():
    # a field named by its order and the same field built as a tower are
    # one context, so codes over either name agree
    assert make_field(2, 3) is extend_field(make_field(2, 1), 3)
    assert field_from_order(9) is extend_field(field_from_order(3), 2)
    f8, tower8 = field_from_order(8), extend_field(field_from_order(2), 3)
    for a, b in ((f8, tower8), (tower8, f8)):
        for m in (0, 5, gaussian(6, 2, 8) - 1):
            sub = encode(CodecParams(6, 2, a), m)
            assert decode_fast(CodecParams(6, 2, b), sub) == m


def test_field_from_order_and_spec():
    assert field_from_order(9).q == 9
    assert field_from_order(8).p == 2
    assert parse_field_spec("2^3").q == 8
    assert parse_field_spec("7").q == 7
    with pytest.raises(ValueError):
        field_from_order(6)
    with pytest.raises(ValueError):
        parse_field_spec("0")


def test_coeffs_roundtrip():
    f27 = make_field(3, 3)
    for i in (0, 1, 5, 13, 26):
        assert f27.from_coeffs(f27.coeffs(i)) == i


def test_huge_orders_fail_at_once():
    # the size bound is checked before any trial division
    for call in (lambda: field_from_order(1000000000000000003),
                 lambda: parse_field_spec("1000000000000000003^1"),
                 lambda: make_field(2, 10 ** 18),
                 lambda: extend_field(make_field(2, 1), 10 ** 18)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds bound"):
            call()
        assert time.perf_counter() - start < 1.0


EXTENSION_FIELDS = [(p, m) for p in (2, 3, 5, 7, 11, 13)
                    for m in range(2, 9) if p ** m <= 256]


def polynomial_oracle(ctx):
    """add, neg and mul of an extension field from polynomial arithmetic
    over its base on digit vectors."""
    base, deg, bq = ctx.base, ctx.degree, ctx.base.q

    def vec(a):
        return list(digits_of(a, bq, deg))

    def add(a, b):
        return undigits([base.add(x, y) for x, y in zip(vec(a), vec(b))], bq)

    def neg(a):
        return undigits([base.neg(x) for x in vec(a)], bq)

    def mul(a, b):
        return undigits(_pmod(base, _pmul(base, vec(a), vec(b)),
                              ctx.modulus), bq)

    return add, neg, mul


def test_extension_ops_match_polynomial_oracle():
    fields = [make_field(p, m) for p, m in EXTENSION_FIELDS]
    fields += [extend_field(make_field(2, 2), 3),
               extend_field(make_field(3, 1), 5)]
    rng = random.Random(10)
    for ctx in fields:
        q = ctx.q
        add, neg, mul = polynomial_oracle(ctx)
        if q <= 64:
            pairs = [(a, b) for a in range(q) for b in range(q)]
        else:
            pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(400)]
        for a, b in pairs:
            assert ctx.add(a, b) == add(a, b)
            assert ctx.sub(a, b) == add(a, neg(b))
            assert ctx.mul(a, b) == mul(a, b)
        for a in range(1, q):
            assert ctx.neg(a) == neg(a)
            assert mul(a, ctx.inv(a)) == 1
        assert ctx.neg(0) == 0
        with pytest.raises(ZeroDivisionError):
            ctx.inv(0)

        def order(a):
            cur, k = a, 1
            while cur != 1:
                cur, k = mul(cur, a), k + 1
            return k

        # the least element of multiplicative order q - 1, by brute force
        orders = [order(a) for a in range(1, ctx.primitive_index() + 1)]
        assert orders[-1] == q - 1 and q - 1 not in orders[:-1]


def test_power_tables_match_the_generic_walk():
    # the exp table is g^0..g^(q-2) twice and log its inverse, so both
    # equal the generic walk's when the powers do; towers included, whose
    # indices are digits of digits
    fields = [make_field(2, 8), make_field(3, 5), make_field(5, 3),
              extend_field(make_field(2, 2), 3),
              extend_field(make_field(3, 2), 2)]
    for ctx in fields:
        base, q, g = ctx.base, ctx.q, ctx.primitive_index()
        step = list(digits_of(g, base.q, ctx.degree))
        walk, cur = [1], [1]
        for _ in range(q - 2):
            cur = _pmod(base, _pmul(base, step, cur), ctx.modulus)
            walk.append(undigits(cur, base.q))
        assert ctx._powers(g) == walk, ctx
        log = {a: i for i, a in enumerate(walk)}
        assert len(log) == q - 1
        for a in walk[::7]:
            assert ctx.mul(a, g) == walk[(log[a] + 1) % (q - 1)]
            assert ctx.inv(a) == walk[-log[a] % (q - 1)]
