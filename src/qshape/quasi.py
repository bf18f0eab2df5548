"""Quasipolynomial structure of q-binomial coefficient sequences.

The coefficients of ``[n+k choose k]_q`` agree with one polynomial per
residue class modulo lcm(1..k) on each of k large regions.  Everything here
flows from one identity: expanding the numerator of

    [n+k choose k]_q = (1 - q^(n+k))...(1 - q^(n+1)) / ((1-q^k)...(1-q))

by the q-binomial theorem gives signed terms c * q^(j*n + t), so the
coefficient of q^m is a signed sum of power-series coefficients of
1 / ((1-q)...(1-q^k)) at shifted indices.  Those base coefficients count
partitions into parts at most k and are exactly quasipolynomial, which this
module recovers by exact interpolation and validates on held-out samples.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    IndexOutOfRange,
    InsufficientSamples,
    InvalidArguments,
    NonUnitConstantTerm,
    ValidationFailure,
)
from .exactnum import Polynomial, Scalar, solve_linear_rational
from .qcore import q_binomial, q_binomial_box


@dataclass(frozen=True)
class Quasipolynomial:
    """One polynomial per residue class: value at m is polys[m mod period](m)."""

    period: int
    polys: tuple[Polynomial, ...]

    def __post_init__(self):
        if self.period < 1 or len(self.polys) != self.period:
            raise InvalidArguments("need exactly one polynomial per residue class")

    @property
    def degree(self) -> int:
        return max(p.degree for p in self.polys)

    def evaluate(self, m: int) -> Scalar:
        return self.polys[m % self.period].evaluate(m)

    def __add__(self, other: Quasipolynomial) -> Quasipolynomial:
        if self.period != other.period:
            raise InvalidArguments("periods differ")
        return Quasipolynomial(self.period, tuple(a + b for a, b in zip(self.polys, other.polys)))

    def scaled(self, c: Scalar) -> Quasipolynomial:
        return Quasipolynomial(self.period, tuple(p * c for p in self.polys))

    def arg_shifted(self, e: int) -> Quasipolynomial:
        """The quasipolynomial m -> self(m - e)."""
        s = self.period
        return Quasipolynomial(
            s, tuple(self.polys[(r - e) % s].taylor_shift(-e) for r in range(s))
        )

    @classmethod
    def zero(cls, period: int) -> Quasipolynomial:
        return cls(period, (Polynomial.zero(),) * period)


def reciprocal_series(den: Polynomial, count: int) -> list[int]:
    """First `count` power-series coefficients of 1/den.

    Needs constant term +1 or -1 so the recurrence stays over the integers.
    """
    if den.is_zero() or den.coefficient(0) not in (1, -1):
        raise NonUnitConstantTerm("denominator must have constant term +1 or -1")
    d0 = den.coefficient(0)
    d = den.coeffs
    out = [0] * count
    if count > 0:
        out[0] = d0
    for i in range(1, count):
        acc = 0
        for j in range(1, min(i, len(d) - 1) + 1):
            acc += d[j] * out[i - j]
        out[i] = -d0 * acc
    return out


def fit_quasipolynomial(
    values: Sequence[int], start_index: int, period: int, degree: int
) -> Quasipolynomial:
    """Exact per-residue interpolation of a quasipolynomial from samples.

    values[i] is the sequence value at argument start_index + i.  Each
    residue class fits on its first degree+1 samples and must agree on at
    least degree+1 held-out samples, otherwise ValidationFailure.
    """
    if period < 1 or degree < 0:
        raise InvalidArguments("need period >= 1 and degree >= 0")
    by_residue: list[list[tuple[int, int]]] = [[] for _ in range(period)]
    for i, v in enumerate(values):
        m = start_index + i
        by_residue[m % period].append((m, v))
    need = 2 * (degree + 1)
    polys = []
    for r, samples in enumerate(by_residue):
        if len(samples) < need:
            raise InsufficientSamples(
                f"residue {r}: {len(samples)} samples, need {need}"
            )
        fit, held_out = samples[: degree + 1], samples[degree + 1 :]
        matrix = [[Fraction(m) ** j for j in range(degree + 1)] for m, _ in fit]
        coeffs = solve_linear_rational(matrix, [v for _, v in fit])
        poly = Polynomial(coeffs)
        for m, v in held_out:
            if poly.evaluate(m) != v:
                raise ValidationFailure(
                    f"residue {r} fit fails at m={m}: not quasipolynomial "
                    f"with period {period}, degree {degree}"
                )
        polys.append(poly)
    return Quasipolynomial(period, tuple(polys))


@functools.lru_cache(maxsize=None)
def initial_quasipolynomial(k: int) -> Quasipolynomial:
    """The quasipolynomial giving the series coefficients of 1/((1-q)...(1-q^k)).

    Coefficient m counts partitions of m into parts at most k; it is exactly
    quasipolynomial in m with period lcm(1..k) and degree k-1, which the fit
    validates on held-out samples.
    """
    if k < 1:
        raise InvalidArguments("needs k >= 1")
    den = Polynomial.one()
    for i in range(1, k + 1):
        den = den * (Polynomial.one() - Polynomial.monomial(i))
    period = math.lcm(*range(1, k + 1))
    count = 2 * k * period
    return fit_quasipolynomial(reciprocal_series(den, count), 0, period, k - 1)


@dataclass(frozen=True)
class SignedTerm:
    """One numerator term sign * multiplicity * q^(block*n + exponent_offset)."""

    sign: int
    multiplicity: int
    exponent_offset: int
    block: int

    def exponent(self, n: int) -> int:
        return self.block * n + self.exponent_offset


@functools.lru_cache(maxsize=None)
def numerator_expansion(k: int) -> tuple[SignedTerm, ...]:
    """Expansion of (1 - q^(n+1))...(1 - q^(n+k)) with n symbolic.

    By the q-binomial theorem the product equals
    sum over j of (-1)^j q^(j*n + j(j+1)/2) [k choose j]_q,
    flattened here into one SignedTerm per monomial of each [k choose j]_q.
    """
    if k < 1:
        raise InvalidArguments("needs k >= 1")
    terms = []
    for j in range(k + 1):
        sign = -1 if j % 2 else 1
        base = j * (j + 1) // 2
        for t, c in enumerate(q_binomial(k, j).coeffs):
            if c:
                terms.append(SignedTerm(sign, c, base + t, j))
    return tuple(terms)


def coefficient_via_recursion(n: int, k: int, m: int) -> int:
    """Coefficient of q^m in [n+k choose k]_q from the numerator expansion.

    Sums sign * multiplicity * F(m - exponent) over terms whose concrete
    exponent is at most m, where F is the initial quasipolynomial extended
    by zero below zero (series coefficients below index 0 vanish).
    """
    if k < 1 or n < 0:
        raise InvalidArguments(f"needs k >= 1 and n >= 0, got n={n} k={k}")
    if m < 0 or m > n * k:
        raise IndexOutOfRange(f"m={m} outside [0, {n * k}]")
    base = initial_quasipolynomial(k)
    total = Fraction(0)
    for term in numerator_expansion(k):
        e = term.exponent(n)
        if e <= m:
            total += term.sign * term.multiplicity * base.evaluate(m - e)
    if total.denominator != 1:
        raise ArithmeticError("recursion produced a non-integer coefficient")
    return total.numerator


@dataclass(frozen=True)
class Region:
    """One quasipolynomial region of a coefficient sequence.

    [left, right] is the conservative interval where every numerator term of
    blocks <= index applies in full, so the formula provably matches the
    coefficients there; these intervals tile [0, n*k] together with the
    transition zones.  valid_from is the empirically detected smallest m from
    which the formula matches the true coefficients all the way to right; it
    can sit well below left, making neighbouring formulas overlap.
    """

    index: int
    left: int
    right: int
    valid_from: int
    formula: Quasipolynomial


@dataclass(frozen=True)
class RegionDecomposition:
    n: int
    k: int
    regions: tuple[Region, ...]
    transition_zones: tuple[tuple[int, int], ...]


def min_region_n(k: int) -> int:
    """Smallest n for which region_decomposition accepts (n, k)."""
    return 2 * math.lcm(*range(1, k + 1))


def region_decomposition(n: int, k: int) -> RegionDecomposition:
    """Decompose the coefficients of [n+k choose k]_q into k quasipolynomial
    regions plus the transition zones between them.

    Region r's formula accumulates the numerator terms of blocks <= r; its
    right endpoint sits just below the smallest block-(r+1) exponent and its
    left endpoint is where the last block-r term starts applying in full.
    The zone widths between regions depend on k only, not on n.
    """
    if k < 1:
        raise InvalidArguments("needs k >= 1")
    if n < min_region_n(k):
        raise InvalidArguments(
            f"n={n} too small for k={k}: need n >= {min_region_n(k)}"
        )
    base = initial_quasipolynomial(k)
    period = base.period
    true_coeffs = q_binomial_box(n, k).coeffs
    top = n * k

    regions = []
    formula = Quasipolynomial.zero(period)
    terms = numerator_expansion(k)
    for r in range(k):
        for term in terms:
            if term.block == r:
                formula = formula + base.arg_shifted(term.exponent(n)).scaled(
                    term.sign * term.multiplicity
                )
        right = top if r == k - 1 else (r + 1) * n + (r + 1) * (r + 2) // 2 - 1
        left = 0 if r == 0 else r * n + r * (r + 1) // 2 + r * (k - r)
        m = right
        while m >= 0 and formula.evaluate(m) == true_coeffs[m]:
            m -= 1
        regions.append(Region(r, left, right, m + 1, formula))

    zones = tuple(
        (regions[r - 1].right + 1, regions[r].left - 1) for r in range(1, k)
    )
    return RegionDecomposition(n, k, tuple(regions), zones)


def demo_quasipolynomial() -> Quasipolynomial:
    """A period-2 quasipolynomial whose branches visibly fail to mesh:
    10m on even arguments, (m^2 - m)/2 on odd ones."""
    return Quasipolynomial(
        2,
        (
            Polynomial((0, 10)),
            Polynomial((0, Fraction(-1, 2), Fraction(1, 2))),
        ),
    )
