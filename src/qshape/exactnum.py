"""Exact arithmetic substrate: dense univariate polynomials and a rational solver.

Arbitrary-precision integers are plain Python ``int``; exact rationals are
``fractions.Fraction`` (always reduced, denominator positive).  A polynomial
is a dense tuple of coefficients, ``coeffs[i]`` holding the coefficient of
the i-th power.  The zero polynomial is the empty tuple, so the degree is
always ``len(coeffs) - 1``.  Coefficients may be ``int`` or ``Fraction``.
``Polynomial`` is an immutable coefficient record with no ring operators;
``_mul`` is the one polynomial product.
"""
from __future__ import annotations

import math
from itertools import cycle, islice
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from .errors import NonzeroRemainder, SingularSystem

if TYPE_CHECKING:
    from fractions import Fraction

Scalar = Union[int, "Fraction"]


class _Frozen:
    """Immutable value object: equality, hash and pickling use the stored
    ``__slots__``, which subclasses set once, in one canonical form; repr shows
    the fields named in ``_fields``, and assignment raises AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    @classmethod
    def _make(cls, *values):
        """An instance whose __slots__ hold values, in order, bypassing __new__."""
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return self._make, self._values()


class Polynomial(_Frozen):
    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> Scalar:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __pow__(self, n: int) -> Polynomial:
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result, base = (1,), self.coeffs
        while n:
            if n & 1:
                result = _mul(result, base)
            base = _mul(base, base)
            n >>= 1
        return Polynomial(result)

    def exact_div(self, den: Polynomial) -> Polynomial:
        """Quotient of an exact division; raises NonzeroRemainder otherwise.

        Division runs over the fraction field, so an integer quotient comes
        out with integer coefficients whenever the inputs are integral and
        the division is exact.
        """
        from fractions import Fraction

        if den.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return Polynomial(())
        num = list(self.coeffs)
        d = den.coeffs
        lead = d[-1]
        qdeg = len(num) - len(d)
        if qdeg < 0:
            raise NonzeroRemainder(f"degree {self.degree} < degree {den.degree}")
        quot = [0] * (qdeg + 1)
        for s in range(qdeg, -1, -1):
            top = num[s + len(d) - 1]
            if top == 0:
                continue
            t = Fraction(top, lead) if top % lead else top // lead
            quot[s] = t
            for j, dj in enumerate(d):
                num[s + j] -= t * dj
        if any(c != 0 for c in num[: len(d) - 1]):
            raise NonzeroRemainder("inputs are not exactly divisible")
        return Polynomial(quot)

    def evaluate(self, x: Scalar) -> Scalar:
        """Exact Horner evaluation; returns Fraction when x or coeffs are."""
        return _horner(self.coeffs, x, 1)

    def antiderivative(self) -> Polynomial:
        """Antiderivative with zero constant term, exact over Fractions."""
        from fractions import Fraction
        return Polynomial((0,) + tuple(Fraction(c, i + 1) for i, c in enumerate(self.coeffs)))

    def taylor_shift(self, h: Scalar) -> Polynomial:
        """The polynomial p(x + h), expanded exactly."""
        n = len(self.coeffs)
        if n == 0 or h == 0:
            return self
        out: list[Scalar] = [0] * n
        for j in range(n):
            binom = 1
            hp: Scalar = 1
            for i in range(j, n):
                out[j] += self.coeffs[i] * binom * hp
                binom = binom * (i + 1) // (i + 1 - j)
                hp = hp * h
        return Polynomial(out)

    def to_string(self, var: str = "q", descending: bool = False) -> str:
        """Human-readable rendering, rationals as num/den (e.g. "1/2 m + 1")."""
        rows, den = _integer_rows([self])
        return _render_rows(tuple(zip(*rows)), 1, den, var, descending)[0]


def _mul(a: Sequence[Scalar], b: Sequence[Scalar]) -> list[Scalar]:
    """The coefficients of the product of the polynomials with coefficients a
    and b, by schoolbook multiplication; empty when either is."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _integer_rows(polys: Sequence[Polynomial]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Coefficient rows of one length >= 1, as integers over one common denominator."""
    width = max([len(p.coeffs) for p in polys] + [1])
    den = math.lcm(*(c.denominator for p in polys for c in p.coeffs))
    padded = (p.coeffs + (0,) * (width - len(p.coeffs)) for p in polys)
    return tuple(tuple(c.numerator * den // c.denominator for c in row) for row in padded), den


def _lowest_terms(cols: Iterable[Sequence[int]], den: int) -> tuple[tuple, int]:
    """The canonical form of an exact table: the columns cols (the top one
    last) over den > 0, with all-zero top columns dropped (one stays) and
    then the common gcd of den and every entry divided out."""
    cols = list(cols)
    while len(cols) > 1 and not any(cols[-1]):
        cols.pop()
    g = math.gcd(den, *(c for col in cols for c in col))
    return tuple(tuple(c // g for c in col) for col in cols), den // g


def _ratio(a: int, b: int) -> str:
    """a/b (b > 0) in lowest terms, as an integer when b divides a.  Past str()'s
    digit limit it converts through Decimal, which is exact and has no limit."""
    g = math.gcd(a, b)
    a, b = a // g, b // g
    try:
        return str(a) if b == 1 else f"{a}/{b}"
    except ValueError:  # more digits than the interpreter converts
        from decimal import Decimal
        return str(Decimal(a)) if b == 1 else f"{Decimal(a)}/{Decimal(b)}"


def _brief(value: int) -> str:
    """value in decimal, or its digit count when that is over 200 characters."""
    text = _ratio(value, 1)
    return text if len(text) <= 200 else f"a number of {len(text.lstrip('-'))} digits"


def _horner(row: Sequence[Scalar], a: Scalar, b: int) -> Scalar:
    """b^deg times the polynomial sum_m row[m] x^m at x = a/b, by homogeneous
    Horner: sum of row[m] a^m b^(deg-m), deg = len(row) - 1."""
    acc, power = 0, 1
    for c in reversed(row):
        acc = acc * a + c * power
        power *= b
    return acc


def _polys(rows: Sequence[Sequence[int]], den: int) -> tuple[Polynomial, ...]:
    """The polynomials sum_i row[i]/den x^i, as reduced Fraction coefficients."""
    from fractions import Fraction
    return tuple(Polynomial(Fraction(c, den) for c in row) for row in rows)


def _columns(cols: Sequence, count: int, term) -> list:
    """Per power i, term(i, c) for the coefficient c of that power in rows
    0..count-1, row r reading cols[i][r % len(cols[i])]; term is called once
    per distinct value of a column."""
    out = []
    for i, col in enumerate(cols):
        done = {c: term(i, c) for c in set(col)}
        out.append(islice(cycle(map(done.__getitem__, col)), count))
    return out


def _render_rows(cols: Sequence, count: int, den: int, var: str = "q",
                 descending: bool = False) -> list[str]:
    """Polynomial.to_string of each polynomial sum_i cols[i][r]/den * var^i,
    for rows r < count as in _columns, over den > 0 and at least one column.
    Each coefficient is reduced and formatted once per distinct value of its
    power: the residue polynomials of a quasipolynomial share most of them."""
    def term(i, c):
        mag = _ratio(abs(c), den)
        if i:
            mag = f"{'' if mag == '1' else mag + ' '}{var}{'' if i == 1 else f'^{i}'}"
        return f" - {mag}" if c < 0 else f" + {mag}" if c else ""

    terms = _columns(cols, count, term)
    if descending:
        terms.reverse()
    # every term starts " + " or " - ": drop the leading one's spaces and plus
    return ["-" + t[3:] if t[1:2] == "-" else t[3:] or "0" for t in map("".join, zip(*terms))]


def _form_rows(cols: Sequence, count: int, den: int) -> list[list[str]]:
    """_ratio(c, den) for the coefficients c of each row r < count as in
    _columns, trailing zeros dropped.  As in _render_rows, each distinct
    value of a column is reduced once."""
    out = []
    for values in zip(*_columns(cols, count, lambda i, c: _ratio(c, den))):
        width = len(values)
        while width and values[width - 1] == "0":
            width -= 1
        out.append(list(values[:width]))
    return out


def solve_linear_rational(
    matrix: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]
) -> list[Fraction]:
    """Solve a square linear system exactly by rational Gaussian elimination.

    Raises SingularSystem when the matrix is not invertible.
    """
    from fractions import Fraction

    n = len(rhs)
    if any(len(row) != n for row in matrix) or len(matrix) != n:
        raise ValueError("system must be square")
    a = [[Fraction(x) for x in row] for row in matrix]
    b = [Fraction(x) for x in rhs]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularSystem(f"no pivot in column {col}")
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        b[col] *= inv
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                b[r] -= f * b[col]
    return b
