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
from typing import TYPE_CHECKING, Iterator

from .errors import InvalidArguments, OutOfDomain
from .exactnum import (
    Polynomial, Scalar, _Frozen, _brief, _horner, _integer_rows, _lowest_terms, _polys,
)

if TYPE_CHECKING:
    from fractions import Fraction


class PiecewisePolynomial(_Frozen):
    """Continuous piecewise polynomial on [0,1]; piece i governs [i/k, (i+1)/k].

    Stores the pieces (a limit shape's density) alone, as integer rows over
    one denominator in lowest terms (exactnum._lowest_terms), so equality
    reads them; the Fraction pieces and the CDF (_cdf) are derived where they
    are read.  repr shows k and pieces.
    """

    __slots__ = ("k", "_density")
    _fields = ("k", "pieces")

    def __new__(cls, k: int, pieces: tuple[Polynomial, ...]):
        if k < 1 or len(pieces) != k:
            raise InvalidArguments("need exactly one piece per interval [i/k, (i+1)/k]")
        return cls._canonical(k, *_integer_rows(pieces))

    @classmethod
    def _canonical(cls, k: int, rows, den: int) -> PiecewisePolynomial:
        """Piece i is sum_m rows[i][m]/den x^m, stored as rows again after the
        columns m take the canonical form of _lowest_terms."""
        cols, den = _lowest_terms(zip(*rows), den)
        return cls._make(k, (tuple(zip(*cols)), den))

    def _cdf(self) -> PiecewisePolynomial:
        """The CDF, built from the pieces on each call: piece i is piece i's
        antiderivative plus the earlier pieces' integrals, over den*lcm(1..w)*k^w
        (w the row length; breakpoints by homogeneous Horner at i/k)."""
        (rows, den), k, width = self._density, self.k, len(self._density[0][0])
        scale, kw = math.lcm(*range(1, width + 1)), k ** width
        cdf, below = [], 0
        for i, row in enumerate(rows):
            anti = (0,) + tuple(c * (scale // (m + 1)) for m, c in enumerate(row))
            left = _horner(anti, i, k)
            cdf.append((below - left,) + tuple(c * kw for c in anti[1:]))
            below += _horner(anti, i + 1, k) - left
        return self._canonical(k, cdf, den * scale * kw)

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
        """Exact integral from 0 to x."""
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


# The largest k whose limit shape is built.  Its table holds k^2 integers of
# O(k log k) bits, and its CDF costs about k^4: on a 2-core Xeon, L_256 takes
# 0.24 s and its CDF 2.2 s (98 MB peak), and L_320 0.5 s and 4.8 s (181 MB).
SHAPE_MAX_K = 256


@functools.lru_cache(maxsize=None)
def limit_shape(k: int) -> PiecewisePolynomial:
    """The limit density L_k(x) = k * IH_k(k*x) with exact rational pieces,
    for 1 <= k <= SHAPE_MAX_K."""
    if k < 1:
        raise InvalidArguments("needs k >= 1")
    if k > SHAPE_MAX_K:
        raise InvalidArguments(f"limit shapes need k <= {SHAPE_MAX_K}, got k={_brief(k)}: "
                               f"its table would hold k^2 integers (k^2 = {_brief(k * k)})")
    # piece i is k/(k-1)! * sum_{j<=i} (-1)^j C(k,j) (k*x - j)^(k-1), and the
    # x^m coefficient of (k*x - j)^(k-1) is C(k-1,m) k^m (-j)^(k-1-m)
    column = [math.comb(k - 1, m) * k ** (m + 1) for m in range(k)]
    rows, row = [], [0] * k
    for j in range(k):
        sign = (-1) ** j * math.comb(k, j)
        row = [c + sign * f * (-j) ** (k - 1 - m) for m, (c, f) in enumerate(zip(row, column))]
        rows.append(tuple(row))
    return PiecewisePolynomial._canonical(k, tuple(rows), math.factorial(k - 1))


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
