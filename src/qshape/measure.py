"""Normalized coefficient measures and convergence diagnostics.

A polynomial with non-negative coefficients becomes a probability measure on
[0,1]: a point mass at i/deg with weight coeff(i) / (sum of coefficients).
Convergence to a limit shape is quantified by the Kolmogorov-Smirnov
distance, computed exactly at the atoms (where the supremum against a
continuous CDF is attained) and only then rounded to a float.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import InvalidArguments, NegativeCoefficient, ZeroPolynomial
from .exactnum import Polynomial, _integer_rows, _lowest_terms
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
    # one column over the total: gcd(total, coeffs) is gcd(coeffs)
    (coeffs,), total = _lowest_terms([coeffs], sum(coeffs))
    return EmpiricalMeasure(coeffs, total)


def _ks(coeffs: Sequence[int], total: int, cdf: PiecewisePolynomial) -> float:
    """Kolmogorov-Smirnov distance between the measure coeffs[i] / total at
    i / (len(coeffs) - 1) and the shape whose CDF (shape._cdf()) is cdf.

    The shape CDF is continuous and the empirical CDF is a right-continuous
    step function, so the supremum of their difference is attained at an
    atom, approached either at the atom or from its left.  One sweep compares
    both candidates exactly, reading the CDF grid as it is computed, as
    integer numerators over the common denominator total * den; only the
    final maximum becomes a float, by correctly rounded int division.
    """
    targets, den = cdf._grid(len(coeffs) - 1)
    best = cumulative = 0
    for c, target in zip(coeffs, targets):
        target *= total
        below = abs(cumulative - target)
        cumulative += c * den
        best = max(best, below, abs(cumulative - target))
    return best / (total * den)


def ks_distance(em: EmpiricalMeasure, shape: PiecewisePolynomial) -> float:
    """Kolmogorov-Smirnov distance between the measure and the limit shape,
    swept (_ks) against its closed-form CDF (PiecewisePolynomial._cdf)."""
    return _ks(em.coeffs, em.total, shape._cdf())


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
    cdf = limit_shape(k)._cdf()
    # coefficient 0 of a q-binomial is 1: the box is its own measure in
    # lowest terms, so measure_from_polynomial would only copy it
    boxes = (q_binomial_box(n, k).coeffs for n in ns)
    return [ConvergenceRow(n, _ks(c, sum(c), cdf)) for n, c in zip(ns, boxes)]
