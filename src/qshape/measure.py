"""Normalized coefficient measures and convergence diagnostics.

A polynomial with non-negative coefficients becomes a probability measure on
[0,1]: a point mass at i/deg with weight coeff(i) / (sum of coefficients).
Convergence to a limit shape is quantified by the Kolmogorov-Smirnov
distance, computed exactly at the atoms (where the supremum against a
continuous CDF is attained) and only then rounded to a float.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import InvalidArguments, NegativeCoefficient, ZeroPolynomial
from .exactnum import Polynomial, _integer_rows
from .qcore import q_binomial_box
from .shape import PiecewisePolynomial, limit_shape

if TYPE_CHECKING:
    from fractions import Fraction


class EmpiricalMeasure(NamedTuple):
    """Masses coeffs[i] / total at i / source_degree (one unit mass at 0 when
    source_degree is 0); coeffs are coprime, so equal measures compare equal."""

    coeffs: tuple[int, ...]
    total: int

    @property
    def source_degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def atoms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """(location, mass) pairs, exact; the masses sum to 1."""
        from fractions import Fraction

        d = self.source_degree or 1
        return tuple((Fraction(i, d), Fraction(c, self.total)) for i, c in enumerate(self.coeffs))


def measure_from_polynomial(p: Polynomial) -> EmpiricalMeasure:
    """Atom i at i/deg(p) with mass coeff(i)/p(1).

    A degree-0 polynomial collapses to a single unit mass at 0.
    """
    if p.is_zero():
        raise ZeroPolynomial("cannot normalize the zero polynomial")
    if any(c < 0 for c in p.coeffs):
        raise NegativeCoefficient("measure needs non-negative coefficients")
    (coeffs,), _ = _integer_rows([p])
    g = math.gcd(*coeffs)
    return EmpiricalMeasure(tuple(c // g for c in coeffs), sum(coeffs) // g)


def ks_distance(em: EmpiricalMeasure, shape: PiecewisePolynomial) -> float:
    """Kolmogorov-Smirnov distance between the measure and the shape.

    The shape CDF is continuous and the empirical CDF is a right-continuous
    step function, so the supremum of their difference is attained at an
    atom, approached either at the atom or from its left.  One sweep compares
    both candidates exactly, as integer numerators over the common
    denominator total * den; only the final maximum becomes a float, by int
    true division, which rounds correctly.
    """
    targets, den = shape._grid(shape._cdf, em.source_degree)
    best = cumulative = 0
    for c, target in zip(em.coeffs, targets):
        target *= em.total
        below = abs(cumulative - target)
        cumulative += c * den
        best = max(best, below, abs(cumulative - target))
    return best / (em.total * den)


class ConvergenceRow(NamedTuple):
    n: int
    ks: float


def convergence_table(k: int, n_list: Sequence[int]) -> list[ConvergenceRow]:
    """KS distance of [n+k choose k]_q's coefficient measure to L_k, per n."""
    ns = list(n_list)
    if not ns:
        raise InvalidArguments("n_list must be non-empty")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise InvalidArguments("n_list must be strictly increasing")
    target = limit_shape(k)
    return [
        ConvergenceRow(n, ks_distance(measure_from_polynomial(q_binomial_box(n, k)), target))
        for n in ns
    ]
