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
from fractions import Fraction

from .errors import InvalidArguments, OutOfDomain
from .exactnum import Polynomial, Scalar, _Frozen, _integer_rows


class PiecewisePolynomial(_Frozen):
    """Continuous piecewise polynomial on [0,1]; piece i governs [i/k, (i+1)/k].

    Construction precomputes integer rows over one denominator for the
    pieces and for the CDF (each piece's antiderivative plus the prefix sum
    of the earlier pieces' integrals); evaluation is integer arithmetic.
    Equality, hash and repr use k and pieces only.
    """

    __slots__ = ("k", "pieces", "_density", "_cdf")
    _fields = ("k", "pieces")

    def __init__(self, k: int, pieces: tuple[Polynomial, ...]):
        cdf_pieces, below = [], Fraction(0)
        for i, piece in enumerate(pieces):
            anti = piece.antiderivative()
            left = anti.evaluate(Fraction(i, k))
            cdf_pieces.append(anti + (below - left))
            below += anti.evaluate(Fraction(i + 1, k)) - left
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "_density", _integer_rows(pieces))
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
        numerators over one common denominator.

        Each row is scaled once to c_m b^(deg-m) (b = max(d, 1)), so every
        grid point is plain Horner in j."""
        (rows, den), b = self._cdf, max(d, 1)
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
