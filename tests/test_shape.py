import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshape.errors import InvalidArguments, OutOfDomain
from qshape.exactnum import Polynomial, _integer_rows
from qshape.shape import (
    PiecewisePolynomial,
    cube_slice_volume,
    irwin_hall_density,
    limit_shape,
)

from oracles import add, derivative, mul, scale_arg, sub


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


def piece_index(shape, x):
    return min(int(x * shape.k), shape.k - 1)


def evaluate_oracle(shape, x):
    """The value at x by Fraction Horner on the governing piece."""
    x = Fraction(x)
    return Fraction(shape.pieces[piece_index(shape, x)].evaluate(x))


def cdf_oracle(shape, x):
    """The integral from 0 to x, summed from each piece's Fraction
    antiderivative, with every earlier piece integrated again per call."""
    x = Fraction(x)
    i = piece_index(shape, x)
    total = Fraction(0)
    for j in range(i):
        anti = shape.pieces[j].antiderivative()
        total += anti.evaluate(Fraction(j + 1, shape.k)) - anti.evaluate(Fraction(j, shape.k))
    anti = shape.pieces[i].antiderivative()
    return total + anti.evaluate(x) - anti.evaluate(Fraction(i, shape.k))


def random_shape(data, k):
    """A PiecewisePolynomial on k random pieces: unequal degrees, zero pieces,
    integer or rational coefficients."""
    coefficient = st.fractions(min_value=-100, max_value=100, max_denominator=50)
    return PiecewisePolynomial(k, tuple(
        Polynomial(data.draw(st.lists(coefficient, max_size=7), label=f"piece {i}"))
        for i in range(k)
    ))


def power_sum_pieces(k):
    """Oracle: L_k's pieces as Fraction polynomials, k/(k-1)! times the
    prefix sums of (-1)^j C(k,j) (k x - j)^(k-1) by polynomial powers."""
    pieces, piece = [], Polynomial(())
    for j in range(k):
        piece = add(piece, mul(Polynomial((-j, k)) ** (k - 1), (-1) ** j * math.comb(k, j)))
        pieces.append(mul(piece, Fraction(k, math.factorial(k - 1))))
    return tuple(pieces)


class TestLimitShapePieces:
    def test_k3_printed_pieces(self):
        shape = limit_shape(3)
        assert shape.pieces[0] == Polynomial((0, 0, Fraction(27, 2)))
        assert shape.pieces[1] == Polynomial((Fraction(-9, 2), 27, -27))
        # 27/2 (1-x)^2
        assert shape.pieces[2] == Polynomial((Fraction(27, 2), -27, Fraction(27, 2)))

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

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.integers(1, 10), st.lists(rationals, min_size=1, max_size=5))
    def test_limit_shape_matches_fraction_oracles(self, k, xs):
        shape = limit_shape(k)
        for x in xs:
            assert shape.evaluate(x) == evaluate_oracle(shape, x)
            assert shape.cdf(x) == cdf_oracle(shape, x)

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.data())
    def test_random_pieces_match_fraction_oracles(self, data):
        # pieces of unequal degrees, zero pieces, integer or rational coefficients
        k = data.draw(st.integers(1, 5), label="k")
        shape = random_shape(data, k)
        for x in data.draw(st.lists(self.rationals, min_size=1, max_size=5), label="xs"):
            assert shape.evaluate(x) == evaluate_oracle(shape, x)
            assert shape.cdf(x) == cdf_oracle(shape, x)

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.data())
    def test_cdf_grid_matches_cdf(self, data):
        # the KS sweep's pre-scaled grid against the CDF at every j/d,
        # for L_k and for random pieces of unequal degrees
        k = data.draw(st.integers(1, 8), label="k")
        if data.draw(st.booleans(), label="limit shape"):
            shape = limit_shape(k)
        else:
            shape = random_shape(data, k)
        d = data.draw(st.integers(0, 300), label="d")
        values, den = shape._grid(shape._cdf, d)
        rows, row_den = shape._cdf
        assert den == row_den * max(d, 1) ** (len(rows[0]) - 1)
        assert values == [shape.cdf(Fraction(j, max(d, 1))) * den for j in range(d + 1)]

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.data())
    def test_density_grid_matches_evaluate(self, data):
        # the sample grid of shape --samples and plot --overlay against
        # evaluate at every j/d, for L_k and for random pieces of unequal degrees
        k = data.draw(st.integers(1, 10), label="k")
        if data.draw(st.booleans(), label="limit shape"):
            shape = limit_shape(k)
            rebuilt = PiecewisePolynomial(k, shape.pieces)
            assert rebuilt._density == shape._density and rebuilt._cdf == shape._cdf
        else:
            shape = random_shape(data, min(k, 5))
        d = data.draw(st.integers(0, 300), label="d")
        values, den = shape._grid(shape._density, d)
        rows, row_den = shape._density
        assert den == row_den * max(d, 1) ** (len(rows[0]) - 1)
        assert values == [shape.evaluate(Fraction(j, max(d, 1))) * den for j in range(d + 1)]

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.data())
    def test_tables_match_fraction_construction(self, data):
        # the integer tables equal _integer_rows of the Fraction pieces and of
        # the Fraction CDF pieces (antiderivative plus the earlier integrals)
        k = data.draw(st.integers(1, 10), label="k")
        if data.draw(st.booleans(), label="limit shape"):
            shape = limit_shape(k)
        else:
            shape = random_shape(data, min(k, 5))
        cdf_pieces, below = [], Fraction(0)
        for i, piece in enumerate(shape.pieces):
            anti = piece.antiderivative()
            left = anti.evaluate(Fraction(i, shape.k))
            cdf_pieces.append(add(anti, below - left))
            below += anti.evaluate(Fraction(i + 1, shape.k)) - left
        assert shape._density == _integer_rows(shape.pieces)
        assert shape._cdf == _integer_rows(cdf_pieces)

    def test_breakpoints_and_ends(self):
        for k in range(1, 9):
            shape = limit_shape(k)
            for i in range(k + 1):
                x = Fraction(i, k)
                assert shape.evaluate(x) == evaluate_oracle(shape, x)
                assert shape.cdf(x) == cdf_oracle(shape, x)


class TestStructuralProperties:
    def test_symmetry_piece_by_piece(self):
        # L_k(x) == L_k(1-x): piece i maps onto piece k-1-i
        for k in range(1, 11):
            shape = limit_shape(k)
            for i, piece in enumerate(shape.pieces):
                mirrored = scale_arg(shape.pieces[k - 1 - i].taylor_shift(1), -1)
                assert piece == mirrored

    def test_continuity_and_smoothness_at_breakpoints(self):
        # value continuity everywhere; derivatives up to k-2 also match
        for k in range(2, 11):
            shape = limit_shape(k)
            for i in range(k - 1):
                x = Fraction(i + 1, k)
                left, right = shape.pieces[i], shape.pieces[i + 1]
                for _ in range(k - 1):
                    assert left.evaluate(x) == right.evaluate(x)
                    left, right = derivative(left), derivative(right)

    def test_degree_exactly_k_minus_one(self):
        for k in range(1, 11):
            for piece in limit_shape(k).pieces:
                assert piece.degree == k - 1

    def test_nonnegative_on_sample_grid(self):
        for k in range(1, 9):
            shape = limit_shape(k)
            assert all(shape.evaluate(Fraction(j, 64)) >= 0 for j in range(65))


class TestCubeSlice:
    def test_square_diagonal(self):
        assert abs(cube_slice_volume(2, 1) - math.sqrt(2)) < 1e-12

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

    def test_monte_carlo_slab(self):
        rng = random.Random(20260809)
        samples = 10 ** 5
        delta = 0.1
        targets = (Fraction(3, 4), Fraction(3, 2), Fraction(9, 4))
        counts = [0] * len(targets)
        for _ in range(samples):
            s = rng.random() + rng.random() + rng.random()
            for i, t in enumerate(targets):
                if abs(s - float(t)) <= delta / 2:
                    counts[i] += 1
        for i, t in enumerate(targets):
            estimate = math.sqrt(3) * counts[i] / (samples * delta)
            assert abs(estimate - cube_slice_volume(3, t)) < 2e-2
