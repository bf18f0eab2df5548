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
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidArguments, OutOfDomain
from .exactnum import Polynomial, Scalar


def _integer_rows(polys) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Coefficient rows of one length, as integers over one common denominator."""
    width = max([len(p.coeffs) for p in polys] + [1])
    den = math.lcm(*(c.denominator for p in polys for c in p.coeffs))
    padded = (p.coeffs + (0,) * (width - len(p.coeffs)) for p in polys)
    return tuple(tuple(c.numerator * den // c.denominator for c in row) for row in padded), den


@dataclass(frozen=True)
class PiecewisePolynomial:
    """Continuous piecewise polynomial on [0,1]; piece i governs [i/k, (i+1)/k].

    Construction precomputes integer rows over one denominator for the
    pieces and for the CDF (each piece's antiderivative plus the prefix sum
    of the earlier pieces' integrals); evaluation is integer arithmetic.
    """

    k: int
    pieces: tuple[Polynomial, ...]
    _density: tuple = field(init=False, repr=False, compare=False)
    _cdf: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cdf_pieces, below = [], Fraction(0)
        for i, piece in enumerate(self.pieces):
            anti = piece.antiderivative()
            left = anti.evaluate(Fraction(i, self.k))
            cdf_pieces.append(anti + (below - left))
            below += anti.evaluate(Fraction(i + 1, self.k)) - left
        object.__setattr__(self, "_density", _integer_rows(self.pieces))
        object.__setattr__(self, "_cdf", _integer_rows(cdf_pieces))

    def _numerator(self, rows, a: int, b: int) -> int:
        """b^deg times the governing row at a/b (0 <= a <= b), by homogeneous
        Horner: sum of c_m a^m b^(deg-m)."""
        acc, power = 0, 1
        for c in reversed(rows[min(self.k * a // b, self.k - 1)]):
            acc = acc * a + c * power
            power *= b
        return acc

    def _at(self, table, x: Scalar) -> Fraction:
        rows, den = table
        a, b = x.as_integer_ratio()
        if a < 0 or a > b:
            raise OutOfDomain(f"x={Fraction(a, b)} outside [0, 1]")
        return Fraction(self._numerator(rows, a, b), den * b ** (len(rows[0]) - 1))

    def evaluate(self, x: Scalar) -> Fraction:
        """Exact value at x; at a breakpoint both pieces agree."""
        return self._at(self._density, x)

    def cdf(self, x: Scalar) -> Fraction:
        """Exact integral from 0 to x."""
        return self._at(self._cdf, x)

    def _cdf_grid(self, d: int) -> tuple[list[int], int]:
        """The CDF at j/d for j = 0..d (at 0 alone when d = 0), as integer
        numerators over one common denominator."""
        (rows, den), b = self._cdf, max(d, 1)
        values = [self._numerator(rows, j, b) for j in range(d + 1)]
        return values, den * b ** (len(rows[0]) - 1)


@functools.lru_cache(maxsize=None)
def limit_shape(k: int) -> PiecewisePolynomial:
    """The limit density L_k(x) = k * IH_k(k*x) with exact rational pieces."""
    if k < 1:
        raise InvalidArguments("needs k >= 1")
    scale = Fraction(k, math.factorial(k - 1))
    pieces, piece = [], Polynomial.zero()
    for j in range(k):
        # piece j adds (-1)^j C(k,j) (k*x - j)^(k-1), expanded over the integers
        piece = piece + Polynomial((-j, k)) ** (k - 1) * ((-1) ** j * math.comb(k, j))
        pieces.append(piece * scale)
    return PiecewisePolynomial(k, tuple(pieces))


def irwin_hall_density(k: int, t: Scalar) -> Fraction:
    """Exact density of a sum of k independent uniforms on [0,1], at t in [0,k]."""
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
