from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshape.errors import InvalidArguments, NegativeCoefficient, ZeroPolynomial
from qshape.exactnum import Polynomial
from qshape.measure import (
    convergence_table,
    ks_distance,
    measure_from_polynomial,
)
from qshape.qcore import q_binomial_box
from qshape.shape import limit_shape

from oracles import cdf_oracle, ks_grid_scan


def ks_atom_oracle(em, shape):
    """Exact KS distance the direct way: one Fraction CDF per atom and
    Fraction running sums."""
    best = Fraction(0)
    cumulative = Fraction(0)
    for x, mass in em.atoms:
        target = cdf_oracle(shape, x)
        below = abs(cumulative - target)
        cumulative += mass
        best = max(best, below, abs(cumulative - target))
    return float(best)


class TestMeasureFromPolynomial:
    def test_two_equal_masses(self):
        em = measure_from_polynomial(Polynomial((1, 1)))
        assert em.atoms == ((Fraction(0), Fraction(1, 2)), (Fraction(1), Fraction(1, 2)))

    def test_box_2_2_masses(self):
        em = measure_from_polynomial(q_binomial_box(2, 2))
        assert [a for a, _ in em.atoms] == [Fraction(i, 4) for i in range(5)]
        assert [m for _, m in em.atoms] == [
            Fraction(1, 6), Fraction(1, 6), Fraction(1, 3), Fraction(1, 6), Fraction(1, 6),
        ]

    def test_constant_collapses_to_origin(self):
        em = measure_from_polynomial(Polynomial((7,)))
        assert em.atoms == ((Fraction(0), Fraction(1)),)
        assert em.source_degree == 0

    def test_mass_conservation_exact(self):
        for n in range(1, 12):
            for k in range(1, 5):
                em = measure_from_polynomial(q_binomial_box(n, k))
                assert sum(m for _, m in em.atoms) == 1

    def test_locations_strictly_increasing(self):
        em = measure_from_polynomial(q_binomial_box(7, 3))
        locs = [a for a, _ in em.atoms]
        assert all(x < y for x, y in zip(locs, locs[1:]))

    def test_symmetry_transfer(self):
        em = measure_from_polynomial(q_binomial_box(9, 4))
        flipped = tuple((1 - a, m) for a, m in reversed(em.atoms))
        assert flipped == em.atoms

    def test_proportional_and_rational_coefficients(self):
        # the measure keeps only the ratios of the coefficients
        em = measure_from_polynomial(Polynomial((Fraction(1, 2), 1)))
        assert em.atoms == ((Fraction(0), Fraction(1, 3)), (Fraction(1), Fraction(2, 3)))
        assert em == measure_from_polynomial(Polynomial((3, 6)))

    def test_errors(self):
        with pytest.raises(ZeroPolynomial):
            measure_from_polynomial(Polynomial(()))
        with pytest.raises(NegativeCoefficient):
            measure_from_polynomial(Polynomial((1, -2, 1)))


class TestKsDistance:
    def test_point_mass_vs_uniform(self):
        em = measure_from_polynomial(Polynomial((1,)))
        assert ks_distance(em, limit_shape(1)) == 1.0

    def test_uniform_discretization_bound(self):
        for d in (9, 40, 99):
            em = measure_from_polynomial(Polynomial((1,) * (d + 1)))
            assert ks_distance(em, limit_shape(1)) <= 1 / (d + 1) + 1e-12

    def test_within_unit_interval(self):
        for n, k in ((5, 2), (12, 3), (20, 4)):
            em = measure_from_polynomial(q_binomial_box(n, k))
            assert 0 < ks_distance(em, limit_shape(k)) <= 1

    def test_agrees_with_grid_scan_oracle(self):
        for n, k in ((10, 2), (20, 3), (50, 3), (15, 4)):
            em = measure_from_polynomial(q_binomial_box(n, k))
            shape = limit_shape(k)
            assert abs(ks_distance(em, shape) - ks_grid_scan(em, shape)) < 1e-9

    @settings(max_examples=40)
    @given(
        st.lists(st.integers(0, 2 ** 70), min_size=1, max_size=61).filter(any),
        st.integers(1, 8),
    )
    def test_equals_atom_oracle(self, coeffs, k):
        em = measure_from_polynomial(Polynomial(coeffs))
        shape = limit_shape(k)
        assert ks_distance(em, shape) == ks_atom_oracle(em, shape)

    @settings(max_examples=40)
    @given(
        st.lists(st.integers(0, 1000), max_size=40),
        st.integers(1, 1000),
        st.integers(1, 1000),
        st.booleans(),
        st.integers(1, 8),
    )
    def test_invariant_under_reversal(self, middle, first, last, palindrome, k):
        # L_k(x) = L_k(1 - x), so reflecting the measure keeps the distance;
        # nonzero end coefficients keep the degree under reversal
        coeffs = [first] + middle + [last]
        if palindrome:
            coeffs += coeffs[::-1]
        shape = limit_shape(k)
        forward = ks_distance(measure_from_polynomial(Polynomial(coeffs)), shape)
        assert forward == ks_distance(measure_from_polynomial(Polynomial(coeffs[::-1])), shape)

    def test_regression_value_50_3(self):
        em = measure_from_polynomial(q_binomial_box(50, 3))
        assert abs(ks_distance(em, limit_shape(3)) - 0.014926214633313412) < 1e-9


class TestConvergenceTable:
    def test_k1_discretization_only(self):
        rows = convergence_table(1, [10])
        assert rows[0].ks <= 1 / 10 + 1e-12

    def test_monotone_for_first_page_series(self):
        rows = convergence_table(3, [5, 20, 50])
        assert rows[0].ks > rows[1].ks > rows[2].ks

    def test_k4_halves_per_doubling(self):
        # measured rate: each doubling of n roughly halves the distance
        values = [row.ks for row in convergence_table(4, [10, 20, 40, 80])]
        for a, b in zip(values, values[1:]):
            assert 2 / 1.5 < a / b < 2 * 1.5

    def test_k4_halves_per_doubling_at_large_n(self):
        values = [row.ks for row in convergence_table(4, [1000, 2000, 4000, 8000])]
        for a, b in zip(values, values[1:]):
            assert 1.95 <= a / b <= 2.05

    @settings(max_examples=40)
    @given(
        st.integers(1, 8),
        st.sets(st.integers(0, 300), min_size=1, max_size=6).map(sorted),
    )
    def test_equals_public_composition(self, k, ns):
        # the table skips measure_from_polynomial: a q-binomial's coefficient 0
        # is 1, so its box is already the coprime measure that call would make
        for row in convergence_table(k, ns):
            em = measure_from_polynomial(q_binomial_box(row.n, k))
            assert row.ks == ks_distance(em, limit_shape(k))

    @pytest.mark.parametrize("k, n", [(1, 0), (8, 0), (8, 10000)])
    def test_equals_public_composition_at_the_ends(self, k, n):
        em = measure_from_polynomial(q_binomial_box(n, k))
        assert convergence_table(k, [n]) == [(n, ks_distance(em, limit_shape(k)))]

    def test_bad_n_list(self):
        with pytest.raises(InvalidArguments):
            convergence_table(3, [])
        with pytest.raises(InvalidArguments):
            convergence_table(3, [10, 10])
