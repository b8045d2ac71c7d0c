"""q-analog combinatorics on exact arbitrary-precision integers.

Python ints play the role of the arbitrary-precision naturals; every
division in this module is exact and checked.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial


def _exact_div(num: int, den: int) -> int:
    quo, rem = divmod(num, den)
    if rem:
        raise ValueError("inexact division %d / %d" % (num, den))
    return quo


def q_number(k: int, q: int) -> int:
    """[k]_q = 1 + q + ... + q^(k-1)."""
    if q < 2:
        raise ValueError("q must be >= 2")
    return (q ** k - 1) // (q - 1)


def q_factorial(k: int, q: int) -> int:
    """[k]_q! = [k]_q [k-1]_q ... [1]_q."""
    out = 1
    for i in range(1, k + 1):
        out *= q_number(i, q)
    return out


def _product_tree(terms) -> int:
    terms = list(terms)
    if not terms:
        return 1
    while len(terms) > 1:
        nxt = [terms[i] * terms[i + 1] for i in range(0, len(terms) - 1, 2)]
        if len(terms) % 2:
            nxt.append(terms[-1])
        terms = nxt
    return terms[0]


@lru_cache(maxsize=4096, typed=True)    # typed: 6.0 never takes 6's entry
def gaussian_product_tree(n: int, k: int, q: int) -> int:
    """[n k]_q via separate pairwise product trees and one exact division."""
    if {type(n), type(k), type(q)} != {int}:    # run on a cache miss only
        raise TypeError("n, k and q must be ints")
    if q < 2:
        raise ValueError("q must be >= 2")
    if k < 0 or k > n:
        return 0
    # [n k]_q = [n n-k]_q: the shorter products, which matters for k near n
    k = min(k, n - k)
    num = _product_tree(q ** (n - i) - 1 for i in range(k))
    den = _product_tree(q ** (i + 1) - 1 for i in range(k))
    return _exact_div(num, den)


def gaussian(n: int, k: int, q: int) -> int:
    """Number of k-dim subspaces of GF(q)^n (k outside [0, n] gives 0)."""
    return gaussian_product_tree(n, k, q)


def gaussian_step_down(g: int, n: int, k: int, q: int):
    """From g = [n k]_q derive ([n-1 k-1]_q, [n-1 k]_q) by exact division."""
    if not 1 <= k <= n - 1:
        raise ValueError("step-down needs 1 <= k <= n-1")
    qn = q ** n - 1
    lower_left = _exact_div(g * (q ** k - 1), qn)
    lower_right = _exact_div(g * (q ** (n - k) - 1), qn)
    return lower_left, lower_right


def count_lower_bound(n: int, k: int, q: int) -> int:
    """Exact lower bound on the number of distinct cyclic optimal
    (n,k;q)-Grassmannian Gray codes the recursive construction produces."""
    out = 1
    for i in range(1, n - k + 1):
        for j in range(1, k + 1):
            base = (q - 1) * q ** (i - 1) \
                * (factorial(q ** i - 1) * q) ** gaussian(i + j - 1, j - 1, q)
            out *= base ** comb(n - i - j, n - k - i)
    return out


def count_lower_bound_log10(n: int, k: int, q: int) -> float:
    """Magnitude (log10) of count_lower_bound without forming the value."""
    from math import lgamma, log10
    ln10 = 2.302585092994046
    total = 0.0
    for i in range(1, n - k + 1):
        for j in range(1, k + 1):
            lg = (log10(q - 1) + (i - 1) * log10(q)
                  + gaussian(i + j - 1, j - 1, q)
                  * (lgamma(q ** i) / ln10 + log10(q)))
            total += comb(n - i - j, n - k - i) * lg
    return total
