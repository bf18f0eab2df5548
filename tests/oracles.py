"""Polynomial constructions that only the tests use: no production path
calls them, so they live here as plain functions over the package's
Polynomial rather than in its public API."""
from qshape.errors import InvalidArguments
from qshape.exactnum import Polynomial


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
