"""Quasipolynomial structure of q-binomial coefficient sequences.

The coefficients of ``[n+k choose k]_q`` agree with one polynomial per
residue class modulo lcm(1..k) on each of k large regions.  Everything here
flows from one identity: expanding the numerator of

    [n+k choose k]_q = (1 - q^(n+k))...(1 - q^(n+1)) / ((1-q^k)...(1-q))

by the q-binomial theorem gives signed terms c * q^(j*n + t), so the
coefficient of q^m is a signed sum of power-series coefficients of
1 / ((1-q)...(1-q^k)) at shifted indices.  Those base coefficients count
partitions into parts at most k and are exactly quasipolynomial: the base
quasipolynomial F is fitted once from its integer series, and each region's
formula is that signed sum of shifted copies of F, assembled exactly in
integers.  Where each formula starts to match follows in closed form from
Stanley reciprocity for partitions into parts <= k.
"""
from __future__ import annotations

import functools
import math
from operator import sub
from typing import NamedTuple, Sequence

from .errors import (
    IndexOutOfRange, InsufficientSamples, InvalidArguments, NonUnitConstantTerm, ValidationFailure,
)
from .exactnum import (
    Polynomial, Scalar, _Frozen, _columns, _form_rows, _horner, _integer_rows, _lowest_terms,
    _polys, _render_rows,
)
from .qcore import _box_series, q_binomial, q_binomial_box


def _least_period(col: Sequence[int]) -> tuple[int, ...]:
    """col cut to its least period, a divisor of len(col); col[d:2d] == col[:d]
    rules most divisors d out before the full test."""
    n = len(col)
    d = next((d for d in range(1, n)
              if n % d == 0 and col[d:2 * d] == col[:d] and col[d:] == col[:n - d]), n)
    return tuple(col[:d])


class Quasipolynomial(_Frozen):
    """One polynomial per residue class: value at m is polys[m mod period](m).

    cols[i] is den times the coefficient of m^i at its least period, a divisor
    of period: residue r reads cols[i][r % len(cols[i])].  Stored in lowest
    terms (_canonical); repr shows period and polys."""

    __slots__ = ("period", "cols", "den")
    _fields = ("period", "polys")

    def __new__(cls, period: int, polys: tuple[Polynomial, ...]):
        if period < 1 or len(polys) != period:
            raise InvalidArguments("need exactly one polynomial per residue class")
        rows, den = _integer_rows(polys)
        return cls._canonical(period, zip(*rows), den)

    @classmethod
    def _canonical(cls, period: int, cols, den: int) -> Quasipolynomial:
        """cols/den (column lengths dividing period) in lowest terms: columns at their
        least periods, all-zero top ones dropped (one stays), common gcd divided out."""
        cols = list(map(_least_period, cols))
        while len(cols) > 1 and cols[-1] == (0,):
            cols.pop()
        return cls._make(period, *_lowest_terms(cols, den))

    @property
    def polys(self) -> tuple[Polynomial, ...]:
        return _polys(zip(*_columns(self.cols, self.period, lambda i, c: c)), self.den)

    @property
    def degree(self) -> int:
        return len(self.cols) - 1 if any(self.cols[-1]) else -1

    def _numerator(self, m: int) -> int:
        """den times the value at m, by integer Horner."""
        return _horner([col[m % len(col)] for col in self.cols], m, 1)

    def evaluate(self, m: int) -> Scalar:
        from fractions import Fraction
        return Fraction(self._numerator(m), self.den)

    def residue_coefficients(self) -> list[list[str]]:
        """Each residue polynomial's coefficients as reduced "a/b" strings
        (integers without "/"), trailing zeros dropped."""
        return _form_rows(self.cols, self.period, self.den)

    def residue_strings(self, var: str = "q", descending: bool = False) -> list[str]:
        """polys[r].to_string(var, descending) for every residue r."""
        return _render_rows(self.cols, self.period, self.den, var, descending)

    def arg_shifted(self, e: int) -> Quasipolynomial:
        """The quasipolynomial m -> self(m - e)."""
        s, polys = self.period, self.polys
        return Quasipolynomial(s, tuple(polys[(r - e) % s].taylor_shift(-e) for r in range(s)))


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

    values[i] is the sequence value at argument start_index + i.  A residue
    class (samples `period` apart) needs 2*(degree+1) samples and is a
    polynomial of degree <= degree iff its forward differences of order
    degree+1 vanish, so the first sample off the fit raises ValidationFailure.
    All residues are fitted at once, with differences at stride `period`
    over the whole window and int rows over d!*period^d.
    """
    if period < 1 or degree < 0:
        raise InvalidArguments("need period >= 1 and degree >= 0")
    need = 2 * (degree + 1)
    row, leads = list(values), []
    for _ in range(degree + 1):
        leads.append(row[:period])
        row = list(map(sub, row[period:], row))
    # a nonzero order-(degree+1) difference row[i] puts the sample at
    # start_index + i + (degree+1)*period off the fit of its residue
    if len(values) < need * period or any(row):
        for r in range(period):
            offset = (r - start_index) % period
            count = len(range(offset, len(values), period))
            if count < need:
                raise InsufficientSamples(f"residue {r}: {count} samples, need {need}")
            bad = next((i for i in range(offset, len(row), period) if row[i]), None)
            if bad is not None:
                raise ValidationFailure(
                    f"residue {r} fit fails at m={start_index + bad + (degree + 1) * period}: "
                    f"not quasipolynomial with period {period}, degree {degree}"
                )
    # cols[i][o]: coefficient of m^i at offset o, by Horner over the Newton form
    # sum_j leads[j][o] / (j! period^j) * prod_{t<j} (m - start_index - o - t*period)
    scale = math.factorial(degree) * period**degree
    cols = []
    for j in range(degree, -1, -1):
        nodes = range(start_index + j * period, start_index + (j + 1) * period)
        unit = scale // (math.factorial(j) * period**j)
        low = [unit * c for c in leads[j]]
        cols = [[a - x * b for a, x, b in zip(lower, nodes, col)]
                for lower, col in zip([low] + cols, cols)] + (cols[-1:] or [low])
    turn = -start_index % period  # offset of residue 0
    return Quasipolynomial._canonical(period, (col[turn:] + col[:turn] for col in cols), scale)


@functools.lru_cache(maxsize=None)
def initial_quasipolynomial(k: int) -> Quasipolynomial:
    """The quasipolynomial giving the series coefficients of 1/((1-q)...(1-q^k)).

    Coefficient m counts partitions of m into parts at most k; it is exactly
    quasipolynomial in m with period lcm(1..k) and degree k-1, which the fit
    validates on held-out samples.
    """
    if k < 1:
        raise InvalidArguments("needs k >= 1")
    period = math.lcm(*range(1, k + 1))
    count = 2 * k * period  # n = count - 1 leaves every numerator factor out
    return fit_quasipolynomial(_box_series(count - 1, k, count), 0, period, k - 1)


class SignedTerm(NamedTuple):
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
    total = sum(t.sign * t.multiplicity * base._numerator(m - t.exponent(n))
                for t in numerator_expansion(k) if t.exponent(n) <= m)
    value, rest = divmod(total, base.den)
    if rest:
        raise ArithmeticError("recursion produced a non-integer coefficient")
    return value


class Region(NamedTuple):
    """One quasipolynomial region of a coefficient sequence.

    [left, right] is the conservative interval where every numerator term of
    blocks <= index applies in full, so the formula provably matches the
    coefficients there; these intervals tile [0, n*k] together with the
    transition zones.  valid_from is the smallest m from which the formula
    matches the true coefficients all the way to right: by reciprocity, 0 for
    region 0 and left - k(k+1)/2 + 1 for the others, so formulas overlap.
    """

    index: int
    left: int
    right: int
    valid_from: int
    formula: Quasipolynomial


class RegionDecomposition(NamedTuple):
    """Regions and transition zones of [n+k choose k]_q, whose coefficients
    are coeffs."""

    n: int
    k: int
    regions: tuple[Region, ...]
    transition_zones: tuple[tuple[int, int], ...]
    coeffs: tuple[int, ...]


def min_region_n(k: int) -> int:
    """Smallest n for which region_decomposition accepts (n, k): the last
    region, [left, n*k] with left = (k-1)n + k(k+1)/2 - 1, is nonempty
    exactly when n >= (k-1)(k+2)/2."""
    return (k - 1) * (k + 2) // 2


def region_decomposition(n: int, k: int) -> RegionDecomposition:
    """Decompose the coefficients of [n+k choose k]_q into k quasipolynomial
    regions plus the transition zones between them.

    Region r's formula is G_r(m) = sum c * F(m - e) over the numerator terms
    c * q^e of blocks <= r, F the base quasipolynomial.  It holds from its left
    endpoint on, the largest such e, where the last block-r term starts
    applying in full, up to its right endpoint just below the smallest
    block-(r+1) exponent.  The zone widths depend on k only.
    """
    if k < 1:
        raise InvalidArguments("needs k >= 1")
    if n < min_region_n(k):
        raise InvalidArguments(f"n={n} too small for k={k}: need n >= {min_region_n(k)}")
    true_coeffs = q_binomial_box(n, k).coeffs
    base, terms = initial_quasipolynomial(k), numerator_expansion(k)
    # F_i = base.cols[i], column i of F; as (m - e)^i = sum_j C(i, j) m^j (-e)^(i-j),
    # acc[j][i - j] sums C(i, j) * c * (-e)^(i-j) * F_i(x - e) over the terms so far,
    # and its sum over i, of period lcms[j], is the formula's coefficient of m^j
    acc = [[[0] * len(col) for col in base.cols[j:]] for j in range(k)]
    lcms = [math.lcm(*map(len, base.cols[j:])) for j in range(k)]

    regions, left = [], 0
    for r in range(k):
        for c, e in [(t.sign * t.multiplicity, t.exponent(n)) for t in terms if t.block == r]:
            left = max(left, e)
            for i, col in enumerate(base.cols):
                shifted = col[-e % len(col):] + col[:-e % len(col)]
                for j in range(i + 1):
                    w = c * math.comb(i, j) * (-e) ** (i - j)
                    acc[j][i - j] = [a + w * x for a, x in zip(acc[j][i - j], shifted)]
        gcols = ([sum(v) for v in zip(*(a * (q // len(a)) for a in sums))]
                 for q, sums in zip(lcms, acc))
        formula = Quasipolynomial._canonical(base.period, gcols, base.den)
        right = n * k if r == k - 1 else (r + 1) * n + (r + 1) * (r + 2) // 2 - 1
        # at m < left the formula is off by sum c * F(m - e) over active e > m,
        # and by reciprocity the base quasipolynomial F vanishes at -1..1-T and
        # F(-T) = +-1, with T = k(k+1)/2
        valid_from = left - k * (k + 1) // 2 + 1 if r else 0
        num, den = formula._numerator, formula.den
        below = valid_from and num(valid_from - 1) == den * true_coeffs[valid_from - 1]
        if below or num(valid_from) != den * true_coeffs[valid_from]:
            raise ArithmeticError(f"region {r} formula does not start matching at m={valid_from}")
        regions.append(Region(r, left, right, valid_from, formula))

    zones = tuple((regions[r - 1].right + 1, regions[r].left - 1) for r in range(1, k))
    return RegionDecomposition(n, k, tuple(regions), zones, true_coeffs)


def demo_quasipolynomial() -> Quasipolynomial:
    """A period-2 quasipolynomial whose branches visibly fail to mesh:
    10m on even arguments, (m^2 - m)/2 on odd ones."""
    return Quasipolynomial._make(2, ((0,), (20, -1), (0, 1)), 2)
