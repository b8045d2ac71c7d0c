from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from grayspace.field import field_from_order
from grayspace.linalg import enumerate_subspaces
from grayspace.qcombin import (count_lower_bound, count_lower_bound_log10,
                               gaussian, gaussian_product_tree,
                               gaussian_step_down, q_factorial, q_number)


def basis_count_quotient(n, k, q):
    """Independent oracle: ordered bases of a k-subspace vs of its copies."""
    num = prod(q ** n - q ** i for i in range(k))
    den = prod(q ** k - q ** i for i in range(k))
    return num // den


def test_known_values():
    assert gaussian(4, 2, 2) == 35
    assert gaussian(2, 1, 3) == 4
    assert gaussian(5, 2, 2) == 155
    assert gaussian(0, 0, 2) == 1
    assert gaussian(3, 5, 2) == 0
    assert gaussian(3, -1, 2) == 0


def test_q_number_and_factorial():
    assert q_number(3, 2) == 7
    assert q_number(1, 5) == 1
    assert q_factorial(3, 2) == 1 * 3 * 7
    with pytest.raises(ValueError):
        q_number(3, 1)


def test_identities_grid():
    for q in (2, 3, 4, 5, 8):
        for n in range(13):
            for k in range(n + 1):
                g = gaussian(n, k, q)
                assert g == gaussian(n, n - k, q)
                assert g == gaussian_product_tree(n, k, q)
                if 0 < k < n:
                    assert g == (gaussian(n - 1, k, q)
                                 + q ** (n - k) * gaussian(n - 1, k - 1, q))


def test_matches_subspace_enumeration():
    for (n, k, q) in [(2, 1, 2), (3, 1, 2), (4, 2, 2), (3, 2, 3), (2, 1, 5)]:
        ctx = field_from_order(q)
        assert gaussian(n, k, q) == sum(1 for _ in
                                        enumerate_subspaces(n, k, ctx))


def test_matches_basis_count_quotient():
    for q in (2, 3, 4, 5, 8):
        for n in range(1, 13):
            for k in range(n + 1):
                assert gaussian(n, k, q) == basis_count_quotient(n, k, q)


def _product(factors):
    """Product by pairs: balanced multiplications of big ints are cheap."""
    factors = list(factors) or [1]
    while len(factors) > 1:
        factors = [prod(factors[i:i + 2]) for i in range(0, len(factors), 2)]
    return factors[0]


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(st.sampled_from((2, 3, 4, 5, 8, 256)), st.data())
def test_basis_count_quotient_up_to_n_512(q, data):
    n = data.draw(st.integers(0, 512))
    k = data.draw(st.integers(0, n))
    # gaussian * (bases of a k-space) == (ordered k-tuples of independent
    # vectors): the quotient, exactly, without a long division
    den = _product(q ** k - q ** i for i in range(k))
    num = _product(q ** n - q ** i for i in range(k))
    assert gaussian(n, k, q) * den == num


def test_step_down():
    for (n, k, q) in [(4, 2, 2), (5, 2, 3), (7, 3, 2), (6, 5, 4)]:
        g = gaussian(n, k, q)
        lower_left, lower_right = gaussian_step_down(g, n, k, q)
        assert lower_left == gaussian(n - 1, k - 1, q)
        assert lower_right == gaussian(n - 1, k, q)
    with pytest.raises(ValueError):
        gaussian_step_down(1, 3, 0, 2)


def test_large_product_tree_consistency():
    # k >= 8 against the recurrence-built value
    table = {(0, 0): 1}
    n_max, q = 20, 2
    for n in range(1, n_max + 1):
        for k in range(n + 1):
            table[(n, k)] = (table.get((n - 1, k), 0)
                             + q ** (n - k) * table.get((n - 1, k - 1), 0))
    for k in (8, 9, 10):
        assert gaussian(20, k, 2) == table[(20, k)]


def test_count_lower_bound_edges():
    for n in range(6):
        assert count_lower_bound(n, 0, 2) == 1
        assert count_lower_bound(n, n, 2) == 1
    assert count_lower_bound(2, 1, 2) == 2
    assert count_lower_bound(3, 1, 2) == 48


def test_count_lower_bound_log10():
    import math
    for (n, k, q) in [(3, 1, 2), (4, 2, 2), (5, 2, 3)]:
        exact = math.log10(count_lower_bound(n, k, q))
        approx = count_lower_bound_log10(n, k, q)
        assert abs(exact - approx) < 1e-6 * max(1.0, exact)
