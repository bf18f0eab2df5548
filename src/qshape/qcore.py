"""q-factorials and Gaussian binomial coefficients.

The box form ``[n+k choose k]_q`` (coefficient i counts partitions of i with
at most n parts, each at most k) is the object whose coefficient sequence the
rest of the package studies.  Its one production engine is the product
formula

    [n+k choose k]_q = prod_{i=1..k} (1 - q^(n+i)) / (1 - q^i)

evaluated over a plain ``int`` list (Andrews, *The Theory of Partitions*,
ch. 3).  Three independent constructions are kept as test oracles: the exact
quotient of q-factorials, the q-Pascal recurrence, and a dynamic program
over partitions in a box.
"""
from __future__ import annotations

import functools
from itertools import accumulate, zip_longest
from operator import ge, le, sub
from typing import NamedTuple

from .errors import InvalidArguments, NegativeCoefficient, ZeroPolynomial
from .exactnum import Polynomial


@functools.lru_cache(maxsize=None)
def q_factorial(n: int) -> Polynomial:
    """[n]!_q = [n]_q [n-1]_q ... [1]_q; the empty product is 1."""
    if n < 0:
        raise InvalidArguments("q_factorial needs n >= 0")
    c = [1]
    for i in range(2, n + 1):  # times [i]_q = (1 - q^i) / (1 - q)
        c += [0] * i
        c[i:] = map(sub, c[i:], c[:-i])
        c = list(accumulate(c[:-1]))
    return Polynomial(c)


def q_binomial(n: int, k: int) -> Polynomial:
    """[n choose k]_q, computed as the box [(n-k)+k choose k]_q."""
    if k < 0 or n < 0 or k > n:
        raise InvalidArguments(f"q_binomial needs 0 <= k <= n, got n={n} k={k}")
    return q_binomial_box(n - k, k)


def _box_series(n: int, k: int, count: int) -> list[int]:
    """The first `count` power-series coefficients of
    prod_{i=1..k} (1 - q^(n+i)) / (1 - q^i), for count >= 1.

    Multiplying by 1 - q^e subtracts the series shifted by e, one slice
    operation, and dividing by 1 - q^i is a prefix sum within each residue
    class mod i.  The factors commute, so they run in pairs; a numerator
    factor with n + i >= count leaves the truncation unchanged, so for
    n >= count - 1 this is the series of partitions into parts at most k.
    """
    c = [1] + [0] * (count - 1)
    for i in range(1, k + 1):
        e = n + i
        if e < count:
            c[e:] = map(sub, c[e:], c[: count - e])
        for r in range(i):
            c[r::i] = accumulate(c[r::i])
    return c


def q_binomial_box(n: int, k: int) -> Polynomial:
    """[n+k choose k]_q: the generating function of partitions in an n-by-k box.

    The product formula truncated at degree n*k // 2, mirrored: the result
    is palindromic of degree n*k.  Since [n+k choose k]_q = [n+k choose n]_q,
    it takes min(n, k) factors.
    """
    if n < 0 or k < 0:
        raise InvalidArguments(f"q_binomial_box needs n, k >= 0, got n={n} k={k}")
    if n < k:
        n, k = k, n
    top = n * k
    half = top // 2
    c = _box_series(n, k, half + 1)
    return Polynomial(c + c[: top - half][::-1])


def q_binomial_pascal(n: int, k: int) -> Polynomial:
    """[n choose k]_q via the q-Pascal recurrence
    [N choose K]_q = [N-1 choose K-1]_q + q^K [N-1 choose K]_q,
    built bottom-up row by row; row N keeps only columns 0..min(N, k)."""
    if k < 0 or n < 0 or k > n:
        raise InvalidArguments(f"q_binomial_pascal needs 0 <= k <= n, got n={n} k={k}")
    row = [(1,)]
    for m in range(1, n + 1):
        nxt = [(1,)]
        for j in range(1, min(m, k) + 1):
            shifted = (0,) * j + row[j] if j < m else ()
            nxt.append(tuple(map(sum, zip_longest(row[j - 1], shifted, fillvalue=0))))
        row = nxt
    return Polynomial(row[k])


def q_binomial_partition_dp(n: int, k: int) -> Polynomial:
    """[n+k choose k]_q by counting partitions directly.

    dp[c][j] is the number of partitions of j into exactly c parts with all
    parts at most s, updated as the allowed part size s grows from 1 to k.
    Coefficient j of the result sums dp[c][j] over c <= n.
    """
    if n < 0 or k < 0:
        raise InvalidArguments(f"needs n, k >= 0, got n={n} k={k}")
    top = n * k
    dp = [[0] * (top + 1) for _ in range(n + 1)]
    dp[0][0] = 1
    for s in range(1, k + 1):
        for c in range(1, n + 1):
            row, prev = dp[c], dp[c - 1]
            for j in range(s, top + 1):
                row[j] += prev[j - s]
    return Polynomial(tuple(sum(dp[c][j] for c in range(n + 1)) for j in range(top + 1)))


class CoefficientReport(NamedTuple):
    symmetric: bool
    unimodal: bool
    peak_index_range: tuple[int, int]
    total: int


def coefficient_report(p: Polynomial) -> CoefficientReport:
    """Symmetry, unimodality, peak plateau, and coefficient sum of p.

    Unimodality is weak: plateaus are allowed on the way up and down, so p
    is unimodal when its coefficients rise to the first maximum and fall
    from there.
    """
    if p.is_zero():
        raise ZeroPolynomial("coefficient_report needs a nonzero polynomial")
    if any(c < 0 for c in p.coeffs):
        raise NegativeCoefficient("coefficient_report needs non-negative coefficients")
    cs = p.coeffs
    first = cs.index(max(cs))
    up, down = cs[: first + 1], cs[first:]
    return CoefficientReport(
        symmetric=cs == cs[::-1],
        unimodal=all(map(le, up, up[1:])) and all(map(ge, down, down[1:])),
        peak_index_range=(first, len(cs) - 1 - cs[::-1].index(cs[first])),
        total=sum(cs),
    )
