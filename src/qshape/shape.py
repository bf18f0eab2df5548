"""Exact limit shapes of normalized q-binomial coefficient bar graphs.

For fixed k the normalized coefficient measures of [n+k choose k]_q approach
a continuous density L_k on [0,1]: the k-fold convolution of the uniform
density on an interval, rescaled to [0,1].  Writing the convolution density
(Irwin-Hall) as

    IH_k(t) = 1/(k-1)! * sum_{j=0..floor(t)} (-1)^j C(k,j) (t-j)^(k-1)

gives L_k(x) = k * IH_k(k*x), one exact rational polynomial of degree k-1
per interval [i/k, (i+1)/k]; its CDF at x is the same sum at power k over
k!, at t = k*x.  Geometrically sqrt(k) * IH_k(t) is the (k-1)-volume of the
slice of the unit k-cube by the hyperplane with coordinate sum t.
"""
from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Iterator

from .errors import InvalidArguments, OutOfDomain
from .exactnum import (
    Polynomial, Scalar, _Frozen, _brief, _horner, _integer_rows, _lowest_terms, _polys,
)

if TYPE_CHECKING:
    from fractions import Fraction


class PiecewisePolynomial(_Frozen):
    """L_k (or, from _cdf, its CDF) as a continuous piecewise polynomial on
    [0,1]; piece i governs [i/k, (i+1)/k].  The constructor accepts L_k's
    pieces only, so the Irwin-Hall closed form is always the CDF.  The pieces
    alone are stored, as integer rows over one denominator in lowest terms
    (exactnum._lowest_terms), so equality reads them.  repr shows k and pieces.
    """

    __slots__ = ("k", "_density")
    _fields = ("k", "pieces")

    def __new__(cls, k: int, pieces: tuple[Polynomial, ...]):
        if k < 1 or len(pieces) != k:
            raise InvalidArguments("need exactly one piece per interval [i/k, (i+1)/k]")
        if (shape := cls._canonical(k, *_integer_rows(pieces))) != limit_shape(k):
            raise InvalidArguments(f"the pieces are not those of the limit shape L_{k}")
        return shape

    @classmethod
    def _canonical(cls, k: int, rows, den: int) -> PiecewisePolynomial:
        """Piece i is sum_m rows[i][m]/den x^m, stored as rows again after the
        columns m take the canonical form of _lowest_terms."""
        cols, den = _lowest_terms(zip(*rows), den)
        return cls._make(k, (tuple(zip(*cols)), den))

    def _cdf(self) -> PiecewisePolynomial:
        """L_k's CDF, built on each call: piece i is the Irwin-Hall CDF at k*x,
        1/k! * sum_{j<=i} (-1)^j C(k,j) (k*x - j)^k (_irwin_hall_rows at power k)."""
        return self._canonical(self.k, _irwin_hall_rows(self.k, self.k), math.factorial(self.k))

    @property
    def pieces(self) -> tuple[Polynomial, ...]:
        return _polys(*self._density)

    def evaluate(self, x: Scalar) -> Fraction:
        """Exact value at x; at a breakpoint both pieces agree."""
        from fractions import Fraction

        (rows, den), (a, b) = self._density, x.as_integer_ratio()
        if a < 0 or a > b:
            raise OutOfDomain(f"x={Fraction(a, b)} outside [0, 1]")
        row = rows[min(self.k * a // b, self.k - 1)]
        return Fraction(_horner(row, a, b), den * b ** (len(row) - 1))

    def cdf(self, x: Scalar) -> Fraction:
        """Exact integral of L_k from 0 to x, read from the closed-form CDF (_cdf)."""
        return self._cdf().evaluate(x)

    def _grid(self, d: int) -> tuple[Iterator[int], int]:
        """The pieces at j/d for j = 0..d (at 0 alone when d = 0): integer
        numerators over one common denominator, as an iterator that computes
        each as it is read.  Each row is scaled once to c_m b^(deg-m)
        (b = max(d, 1)), so every point is plain Horner in j."""
        (rows, den), b, k = self._density, max(d, 1), self.k
        deg = len(rows[0]) - 1

        def values():
            for i, row in enumerate(rows):
                top, *rest = [c * b ** (deg - m) for m, c in enumerate(row)][::-1]
                # row i governs the j with i <= k*j/b < i+1; the last one also j = b
                stop = d + 1 if i == k - 1 else -(-(i + 1) * b // k)
                for j in range(-(-i * b // k), stop):
                    acc = top
                    for c in rest:
                        acc = acc * j + c
                    yield acc

        return values(), den * b**deg


# The largest k whose limit shape is built.  The density and the CDF each
# hold about k^2 integers of O(k log k) bits, built by _irwin_hall_rows in
# about k^2 big-integer operations: that table is what bounds k.
SHAPE_MAX_K = 256


def _irwin_hall_rows(k: int, power: int) -> list[list[int]]:
    """Row i (i = 0..k-1) holds the x^m coefficients, m = 0..power, of
    sum_{j<=i} (-1)^j C(k,j) (k*x - j)^power: the one sum behind both L_k
    (power k-1) and its CDF (power k).  The x^m coefficient of
    (k*x - j)^power is C(power,m) k^m (-j)^(power-m)."""
    column = [math.comb(power, m) * k ** m for m in range(power + 1)]
    rows, row = [], [0] * (power + 1)
    for j in range(k):
        sign = (-1) ** j * math.comb(k, j)
        row = [c + sign * f * (-j) ** (power - m) for m, (c, f) in enumerate(zip(row, column))]
        rows.append(row)
    return rows


@functools.lru_cache(maxsize=None)
def limit_shape(k: int) -> PiecewisePolynomial:
    """The limit density L_k(x) = k * IH_k(k*x) with exact rational pieces,
    for 1 <= k <= SHAPE_MAX_K."""
    if k < 1:
        raise InvalidArguments("needs k >= 1")
    if k > SHAPE_MAX_K:
        raise InvalidArguments(f"limit shapes need k <= {SHAPE_MAX_K}, got k={_brief(k)}: "
                               f"its table would hold k^2 integers (k^2 = {_brief(k * k)})")
    rows = [[k * c for c in row] for row in _irwin_hall_rows(k, k - 1)]
    return PiecewisePolynomial._canonical(k, rows, math.factorial(k - 1))


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
