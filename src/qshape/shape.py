"""Exact limit shapes of normalized q-binomial coefficient bar graphs.

For fixed k the normalized coefficient measures of [n+k choose k]_q approach
a continuous density L_k on [0,1]: the k-fold convolution of the uniform
density on an interval, rescaled to [0,1].  Writing the convolution density
(Irwin-Hall) as

    IH_k(t) = 1/(k-1)! * sum_{j=0..floor(t)} (-1)^j C(k,j) (t-j)^(k-1)

gives L_k(x) = k * IH_k(k*x), one exact rational polynomial of degree k-1
per interval [i/k, (i+1)/k].  Geometrically sqrt(k) * IH_k(t) is the
(k-1)-volume of the slice of the unit k-cube by the hyperplane with
coordinate sum t.
"""
from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

from .errors import InvalidArguments, OutOfDomain
from .exactnum import Polynomial, Scalar, _Frozen, _horner, _integer_rows, _lowest_terms, _polys

if TYPE_CHECKING:
    from fractions import Fraction


def _reduced(rows, den: int):
    """rows/den in lowest terms: the common gcd divided out and all-zero top
    columns dropped (one column stays), as _integer_rows gives them."""
    width = len(rows[0])
    while width > 1 and not any(row[width - 1] for row in rows):
        width -= 1
    return _lowest_terms([row[:width] for row in rows], den)


class PiecewisePolynomial(_Frozen):
    """Continuous piecewise polynomial on [0,1]; piece i governs [i/k, (i+1)/k].

    Stores integer rows over one denominator for the pieces and for the CDF
    (each piece's antiderivative plus the prefix sum of the earlier pieces'
    integrals), both computed in integers; evaluation is integer arithmetic
    and the pieces are derived on access.  Both tables are in lowest terms
    (_reduced), so equality reads them; repr shows k and pieces.
    """

    __slots__ = ("k", "_density", "_cdf")
    _fields = ("k", "pieces")

    def __new__(cls, k: int, pieces: tuple[Polynomial, ...]):
        if k < 1 or len(pieces) != k:
            raise InvalidArguments("need exactly one piece per interval [i/k, (i+1)/k]")
        return cls._from_rows(k, *_integer_rows(pieces))

    @classmethod
    def _from_rows(cls, k: int, rows, den: int) -> PiecewisePolynomial:
        """Piece i is sum_m rows[i][m]/den x^m.  Row i's antiderivative goes
        over den*lcm(1..w) (w the row length) and each breakpoint constant
        is homogeneous Horner at i/k, so the CDF rows lie over
        den*lcm(1..w)*k^w."""
        width = len(rows[0])
        scale, kw = math.lcm(*range(1, width + 1)), k ** width
        cdf, below = [], 0
        for i, row in enumerate(rows):
            anti = (0,) + tuple(c * (scale // (m + 1)) for m, c in enumerate(row))
            left = _horner(anti, i, k)
            cdf.append((below - left,) + tuple(c * kw for c in anti[1:]))
            below += _horner(anti, i + 1, k) - left
        return cls._make(k, _reduced(rows, den), _reduced(cdf, den * scale * kw))

    @property
    def pieces(self) -> tuple[Polynomial, ...]:
        return _polys(*self._density)

    def _at(self, table, x: Scalar) -> Fraction:
        from fractions import Fraction

        rows, den = table
        a, b = x.as_integer_ratio()
        if a < 0 or a > b:
            raise OutOfDomain(f"x={Fraction(a, b)} outside [0, 1]")
        row = rows[min(self.k * a // b, self.k - 1)]
        return Fraction(_horner(row, a, b), den * b ** (len(row) - 1))

    def evaluate(self, x: Scalar) -> Fraction:
        """Exact value at x; at a breakpoint both pieces agree."""
        return self._at(self._density, x)

    def cdf(self, x: Scalar) -> Fraction:
        """Exact integral from 0 to x."""
        return self._at(self._cdf, x)

    def _grid(self, table, d: int) -> tuple[list[int], int]:
        """The table (_density or _cdf) at j/d for j = 0..d (at 0 alone when
        d = 0), as integer numerators over one common denominator.

        Each row is scaled once to c_m b^(deg-m) (b = max(d, 1)), so every
        grid point is plain Horner in j."""
        (rows, den), b = table, max(d, 1)
        deg = len(rows[0]) - 1
        values = []
        for i in range(self.k):
            top, *rest = [c * b ** (deg - m) for m, c in enumerate(rows[i])][::-1]
            # row i governs the j with i <= k*j/b < i+1; the last one also j = b
            stop = d + 1 if i == self.k - 1 else -(-(i + 1) * b // self.k)
            for j in range(len(values), stop):
                acc = top
                for c in rest:
                    acc = acc * j + c
                values.append(acc)
        return values, den * b**deg


@functools.lru_cache(maxsize=None)
def limit_shape(k: int) -> PiecewisePolynomial:
    """The limit density L_k(x) = k * IH_k(k*x) with exact rational pieces."""
    if k < 1:
        raise InvalidArguments("needs k >= 1")
    # piece i is k/(k-1)! * sum_{j<=i} (-1)^j C(k,j) (k*x - j)^(k-1), and the
    # x^m coefficient of (k*x - j)^(k-1) is C(k-1,m) k^m (-j)^(k-1-m)
    column = [math.comb(k - 1, m) * k ** (m + 1) for m in range(k)]
    rows, row = [], [0] * k
    for j in range(k):
        sign = (-1) ** j * math.comb(k, j)
        row = [c + sign * f * (-j) ** (k - 1 - m) for m, (c, f) in enumerate(zip(row, column))]
        rows.append(tuple(row))
    return PiecewisePolynomial._from_rows(k, tuple(rows), math.factorial(k - 1))


def irwin_hall_density(k: int, t: Scalar) -> Fraction:
    """Exact density of a sum of k independent uniforms on [0,1], at t in [0,k]."""
    from fractions import Fraction

    t = Fraction(t)
    if t < 0 or t > k:
        raise OutOfDomain(f"t={t} outside [0, {k}]")
    return limit_shape(k).evaluate(t / k) / k


def cube_slice_volume(k: int, t: Scalar) -> float:
    """(k-1)-volume of the slice of [0,1]^k by the hyperplane x_1+...+x_k = t.

    Equals sqrt(k) * IH_k(t); the sqrt(k) factor makes this the one inexact
    result in the module.
    """
    return math.sqrt(k) * float(irwin_hall_density(k, t))
