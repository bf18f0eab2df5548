"""Constructions that only the tests use: no production path calls them, so
they live here as plain functions over the package's types rather than in
its public API."""
import math
from itertools import accumulate, zip_longest

from qshape.errors import InvalidArguments
from qshape.exactnum import Polynomial, _mul
from qshape.quasi import fit_quasipolynomial, numerator_expansion


def _promote(x):
    """x as a Polynomial: a scalar c becomes the constant polynomial c."""
    return x if isinstance(x, Polynomial) else Polynomial((x,))


def add(a, b):
    """a + b, for polynomials or scalars on either side."""
    return Polynomial(map(sum, zip_longest(_promote(a).coeffs, _promote(b).coeffs, fillvalue=0)))


def neg(p):
    return Polynomial(-c for c in p.coeffs)


def sub(a, b):
    """a - b, for polynomials or scalars on either side."""
    return add(a, neg(_promote(b)))


def mul(a, b):
    """a * b, for polynomials or scalars on either side, by the package's
    one polynomial product."""
    return Polynomial(_mul(_promote(a).coeffs, _promote(b).coeffs))


def monomial(exponent, coefficient=1):
    """coefficient * x^exponent."""
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    return Polynomial((0,) * exponent + (coefficient,))


def derivative(p):
    return Polynomial(tuple(i * c for i, c in enumerate(p.coeffs) if i))


def scale_arg(p, a):
    """The polynomial p(a * x)."""
    out, power = [], 1
    for c in p.coeffs:
        out.append(c * power)
        power = power * a
    return Polynomial(out)


def q_integer(n):
    """[n]_q = 1 + q + ... + q^(n-1); the zero polynomial for n = 0."""
    if n < 0:
        raise InvalidArguments("q_integer needs n >= 0")
    return Polynomial((1,) * n)


def series_fit_formulas(n, k):
    """The k region formulas of [n+k choose k]_q, each fitted from its own
    integer series: the numerator terms of blocks <= r, divided by
    (1-q)...(1-q^k) with one prefix sum per class mod i for each factor
    1-q^i, and fitted from the region's left endpoint on."""
    period = math.lcm(*range(1, k + 1))
    terms = numerator_expansion(k)
    formulas = []
    for r in range(k):
        active = [(t.sign * t.multiplicity, t.exponent(n)) for t in terms if t.block <= r]
        left = max(e for _, e in active)
        series = [0] * (left + 2 * k * period)
        for c, e in active:
            series[e] += c
        for i in range(1, k + 1):
            for c in range(i):
                series[c::i] = accumulate(series[c::i])
        formulas.append(fit_quasipolynomial(series[left:], left, period, k - 1))
    return formulas
