import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshape.errors import InvalidArguments, OutOfDomain
from qshape.exactnum import Polynomial, _horner, _integer_rows
from qshape.shape import (
    SHAPE_MAX_K,
    PiecewisePolynomial,
    cube_slice_volume,
    irwin_hall_density,
    limit_shape,
)

from oracles import add, cdf_oracle, mul, piece_index, scale_arg, sub, value


def convolved_uniform_pieces(k):
    """Oracle: density of a sum of k uniforms on [0,1], built by repeated
    symbolic convolution with the uniform density, one piece per [i, i+1].

    Convolving f with the uniform gives (F(t) - F(t-1)) where F is the
    running antiderivative of f; everything stays exact over Fractions.
    """
    pieces = [Polynomial((1,))]  # k = 1: the uniform density itself
    for _ in range(k - 1):
        antis = []
        total = Fraction(0)
        for i, piece in enumerate(pieces):
            anti = piece.antiderivative()
            # antiderivative matching the running integral at the left end
            antis.append(add(anti, total - anti.evaluate(i)))
            total += anti.evaluate(i + 1) - anti.evaluate(i)
        running = antis + [Polynomial((total,))]  # constant after the support
        pieces = [
            sub(running[i], running[i - 1].taylor_shift(-1) if i else Polynomial(()))
            for i in range(len(pieces) + 1)
        ]
    return pieces


def evaluate_oracle(shape, x):
    """The value at x, summed term by term on the governing piece."""
    x = Fraction(x)
    return Fraction(value(shape.pieces[piece_index(shape, x)], x))


def cdf_pieces_oracle(shape):
    """The CDF's pieces as Fraction polynomials: each piece's antiderivative
    plus the integrals of the earlier pieces."""
    cdf_pieces, below = [], Fraction(0)
    for i, piece in enumerate(shape.pieces):
        anti = piece.antiderivative()
        left = value(anti, Fraction(i, shape.k))
        cdf_pieces.append(add(anti, below - left))
        below += value(anti, Fraction(i + 1, shape.k)) - left
    return tuple(cdf_pieces)


def cdf_reference(shape):
    """The CDF table of any table of pieces, by integration over integers:
    piece i is piece i's antiderivative plus the earlier pieces' integrals,
    over den*lcm(1..w)*k^w (w the row length; breakpoints by homogeneous
    Horner at i/k).  The closed form (PiecewisePolynomial._cdf) is checked
    against it, and it is the CDF of the random tables."""
    (rows, den), k, width = shape._density, shape.k, len(shape._density[0][0])
    scale, kw = math.lcm(*range(1, width + 1)), k ** width
    cdf, below = [], 0
    for i, row in enumerate(rows):
        anti = (0,) + tuple(c * (scale // (m + 1)) for m, c in enumerate(row))
        left = _horner(anti, i, k)
        cdf.append((below - left,) + tuple(c * kw for c in anti[1:]))
        below += _horner(anti, i + 1, k) - left
    return PiecewisePolynomial._canonical(k, cdf, den * scale * kw)


def random_shape(data, k):
    """A table on k random pieces: unequal degrees, zero pieces, integer or
    rational coefficients.  The constructor takes L_k's pieces only, so the
    table is built by _canonical, and its CDF is cdf_reference's."""
    coefficient = st.fractions(min_value=-100, max_value=100, max_denominator=50)
    return PiecewisePolynomial._canonical(k, *_integer_rows([
        Polynomial(data.draw(st.lists(coefficient, max_size=7), label=f"piece {i}"))
        for i in range(k)
    ]))


def drawn_shape(data, k, random_k):
    """L_k and its closed-form CDF, or a random table on random_k pieces and
    its reference CDF."""
    if data.draw(st.booleans(), label="limit shape"):
        return limit_shape(k), limit_shape(k)._cdf()
    shape = random_shape(data, random_k)
    return shape, cdf_reference(shape)


def power_sum_pieces(k):
    """Oracle: L_k's pieces as Fraction polynomials, k/(k-1)! times the
    prefix sums of (-1)^j C(k,j) (k x - j)^(k-1) by polynomial powers."""
    pieces, piece = [], Polynomial(())
    for j in range(k):
        piece = add(piece, mul(Polynomial((-j, k)) ** (k - 1), (-1) ** j * math.comb(k, j)))
        pieces.append(mul(piece, Fraction(k, math.factorial(k - 1))))
    return tuple(pieces)


class TestLimitShapePieces:
    def test_k1_uniform(self):
        assert limit_shape(1).pieces == (Polynomial((1,)),)

    def test_k2_triangle(self):
        shape = limit_shape(2)
        assert shape.pieces[0] == Polynomial((0, 4))
        assert shape.pieces[1] == Polynomial((4, -4))

    def test_piece_count_must_match_k(self):
        with pytest.raises(InvalidArguments):
            PiecewisePolynomial(2, ())
        with pytest.raises(InvalidArguments):
            PiecewisePolynomial(3, (Polynomial((1,)),))

    def test_constructor_takes_the_limit_shapes_pieces_only(self):
        for k in range(1, 9):
            shape = limit_shape(k)
            assert PiecewisePolynomial(k, power_sum_pieces(k)) == shape
            others = [shape._cdf().pieces, (Polynomial((0, 1)),) * k,
                      shape.pieces[:-1] + (mul(shape.pieces[-1], 2),)]
            if k > 1:
                others.append(shape.pieces[1:] + shape.pieces[:1])
            for pieces in others:
                with pytest.raises(InvalidArguments, match=f"not those of the limit shape L_{k}"):
                    PiecewisePolynomial(k, pieces)
        with pytest.raises(InvalidArguments, match=f"need k <= {SHAPE_MAX_K}"):
            PiecewisePolynomial(SHAPE_MAX_K + 1, (Polynomial(()),) * (SHAPE_MAX_K + 1))

    def test_matches_power_sum_oracle(self):
        for k in range(1, 16):
            assert limit_shape(k).pieces == power_sum_pieces(k)

    def test_matches_symbolic_convolution_oracle(self):
        # L_k(x) must equal k * IH_k(k x) piece by piece
        for k in range(1, 5):
            oracle = convolved_uniform_pieces(k)
            shape = limit_shape(k)
            for i, piece in enumerate(shape.pieces):
                assert piece == mul(scale_arg(oracle[i], k), k)


class TestEvaluate:
    def test_paper_midpoint(self):
        assert limit_shape(3).evaluate(Fraction(1, 2)) == Fraction(9, 4)

    def test_corners_vanish(self):
        for k in range(2, 8):
            assert limit_shape(k).evaluate(0) == 0
            assert limit_shape(k).evaluate(1) == 0

    def test_uniform_everywhere_one(self):
        assert limit_shape(1).evaluate(Fraction(1, 3)) == 1

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            limit_shape(3).evaluate(Fraction(3, 2))
        with pytest.raises(OutOfDomain):
            limit_shape(3).evaluate(Fraction(-1, 10))


class TestCdf:
    @settings(max_examples=30)
    @given(st.integers(1, 64))
    def test_closed_form_is_the_integrated_density(self, k):
        shape = limit_shape(k)
        assert shape._cdf() == cdf_reference(shape)
        assert shape._cdf()._density == cdf_reference(shape)._density

    @pytest.mark.parametrize("k", [160, 256])
    def test_closed_form_is_the_integrated_density_at_large_k(self, k):
        shape = limit_shape(k)
        assert shape._cdf()._density == cdf_reference(shape)._density

    def test_total_mass(self):
        for k in range(1, 11):
            assert limit_shape(k).cdf(1) == 1

    def test_half_by_symmetry(self):
        for k in range(1, 11):
            assert limit_shape(k).cdf(Fraction(1, 2)) == Fraction(1, 2)

    def test_first_piece_integral(self):
        assert limit_shape(3).cdf(Fraction(1, 3)) == Fraction(1, 6)

    def test_monotone(self):
        shape = limit_shape(4)
        values = [shape.cdf(Fraction(i, 16)) for i in range(17)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestIntegerKernel:
    """evaluate and cdf run on integer tables; direct Fraction evaluation
    of the pieces and of their antiderivatives is the oracle."""

    rationals = st.fractions(min_value=0, max_value=1, max_denominator=10 ** 9)

    @settings(max_examples=60)
    @given(st.integers(1, 10), st.lists(rationals, min_size=1, max_size=5))
    def test_limit_shape_matches_fraction_oracles(self, k, xs):
        shape = limit_shape(k)
        for x in xs:
            assert shape.evaluate(x) == evaluate_oracle(shape, x)
            assert shape.cdf(x) == cdf_oracle(shape, x)

    @settings(max_examples=60)
    @given(st.data())
    def test_random_pieces_match_fraction_oracles(self, data):
        # pieces of unequal degrees, zero pieces, integer or rational coefficients
        k = data.draw(st.integers(1, 5), label="k")
        shape = random_shape(data, k)
        cdf = cdf_reference(shape)
        for x in data.draw(st.lists(self.rationals, min_size=1, max_size=5), label="xs"):
            assert shape.evaluate(x) == evaluate_oracle(shape, x)
            assert cdf.evaluate(x) == cdf_oracle(shape, x)

    @settings(max_examples=60)
    @given(st.data())
    def test_cdf_grid_matches_cdf(self, data):
        # the KS sweep's pre-scaled grid against the CDF at every j/d,
        # for L_k and for random pieces of unequal degrees
        k = data.draw(st.integers(1, 8), label="k")
        shape, cdf = drawn_shape(data, k, k)
        d = data.draw(st.integers(0, 300), label="d")
        values, den = cdf._grid(d)
        rows, row_den = cdf._density
        assert den == row_den * max(d, 1) ** (len(rows[0]) - 1)
        assert list(values) == [cdf.evaluate(Fraction(j, max(d, 1))) * den for j in range(d + 1)]

    @settings(max_examples=60)
    @given(st.data())
    def test_density_grid_matches_evaluate(self, data):
        # the sample grid of shape --samples and plot --overlay against
        # evaluate at every j/d, for L_k and for random pieces of unequal degrees
        k = data.draw(st.integers(1, 10), label="k")
        if data.draw(st.booleans(), label="limit shape"):
            shape = limit_shape(k)
            rebuilt = PiecewisePolynomial(k, shape.pieces)
            assert rebuilt._density == shape._density and rebuilt._cdf() == shape._cdf()
        else:
            shape = random_shape(data, min(k, 5))
        d = data.draw(st.integers(0, 300), label="d")
        values, den = shape._grid(d)
        rows, row_den = shape._density
        assert den == row_den * max(d, 1) ** (len(rows[0]) - 1)
        assert list(values) == [shape.evaluate(Fraction(j, max(d, 1))) * den for j in range(d + 1)]

    @settings(max_examples=60)
    @given(st.data())
    def test_tables_match_fraction_construction(self, data):
        # the integer tables equal _integer_rows of the Fraction pieces and of
        # the Fraction CDF pieces (antiderivative plus the earlier integrals)
        k = data.draw(st.integers(1, 10), label="k")
        shape, cdf = drawn_shape(data, k, min(k, 5))
        assert shape._density == _integer_rows(shape.pieces)
        assert cdf._density == _integer_rows(cdf_pieces_oracle(shape))

    @settings(max_examples=60)
    @given(st.data())
    def test_cdf_is_the_piecewise_polynomial_of_its_pieces(self, data):
        # the CDF table is the record _canonical builds from the Fraction CDF
        # pieces, and L_k's cdf(x) is its value at x
        k = data.draw(st.integers(1, 10), label="k")
        shape, cdf = drawn_shape(data, k, min(k, 5))
        assert type(cdf) is PiecewisePolynomial
        rows, den = _integer_rows(cdf_pieces_oracle(shape))
        assert cdf == PiecewisePolynomial._canonical(shape.k, rows, den)
        for x in data.draw(st.lists(self.rationals, min_size=1, max_size=5), label="xs"):
            assert cdf.evaluate(x) == cdf_oracle(shape, x)
            if shape == limit_shape(shape.k):
                assert shape.cdf(x) == cdf.evaluate(x)

    def test_breakpoints_and_ends(self):
        for k in range(1, 9):
            shape = limit_shape(k)
            for i in range(k + 1):
                x = Fraction(i, k)
                assert shape.evaluate(x) == evaluate_oracle(shape, x)
                assert shape.cdf(x) == cdf_oracle(shape, x)


class TestStructuralProperties:
    def test_nonnegative_on_sample_grid(self):
        for k in range(1, 9):
            shape = limit_shape(k)
            assert all(shape.evaluate(Fraction(j, 64)) >= 0 for j in range(65))


class TestCubeSlice:
    def test_point_slice_of_interval(self):
        assert cube_slice_volume(1, Fraction(1, 2)) == 1.0

    def test_cube_section_closed_form(self):
        assert abs(cube_slice_volume(3, Fraction(3, 2)) - math.sqrt(3) * 0.75) < 1e-12

    def test_consistency_with_shape(self):
        # k * IH_k(k x) equals L_k(x) exactly when computed symbolically
        for k in (2, 3, 4, 5):
            shape = limit_shape(k)
            for j in range(0, 2 * k + 1):
                x = Fraction(j, 2 * k)
                assert k * irwin_hall_density(k, k * x) == shape.evaluate(x)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            cube_slice_volume(3, 4)
