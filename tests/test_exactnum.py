import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qshape.errors import NonzeroRemainder, SingularSystem
from qshape.exactnum import (
    Polynomial, _horner, _integer_rows, _polys, _ratio, solve_linear_rational,
)

from oracles import add, derivative, mul, scale_arg, sub


def P(*coeffs):
    return Polynomial(coeffs)


scalars = st.one_of(st.integers(-20, 20),
                    st.fractions(min_value=-20, max_value=20, max_denominator=12))
polys = st.lists(scalars, max_size=5).map(Polynomial)


class TestArithmetic:
    def test_add_cancellation(self):
        assert add(P(1, 1), P(1, -1)) == P(2)

    def test_add_identity(self):
        p = P(3, 0, 2)
        assert add(p, P()) == p

    def test_add_direct(self):
        assert add(P(1, 1, 1), P(0, 1, 0, 1)) == P(1, 2, 1, 1)

    def test_mul_geometric_telescope(self):
        assert mul(P(1, -1), P(1, 1, 1)) == P(1, 0, 0, -1)

    def test_mul_identity(self):
        p = P(2, 0, -1, 4)
        assert mul(p, P(1)) == p

    def test_mul_square(self):
        assert mul(P(1, 1), P(1, 1)) == P(1, 2, 1)

    def test_mul_degree_adds(self):
        a, b = P(1, 0, 3), P(-2, 5)
        assert mul(a, b).degree == a.degree + b.degree

    def test_scalar_operands_are_promoted(self):
        assert add(2, P(1, 1)) == add(P(1, 1), 2) == P(3, 1)
        assert sub(1, P(0, 1)) == P(1, -1) and sub(P(0, 1), 1) == P(-1, 1)
        assert mul(3, P(1, 2)) == mul(P(1, 2), 3) == P(3, 6)
        assert mul(0, P(1, 2)) == P()

    def test_pow(self):
        assert P(1, 1) ** 3 == P(1, 3, 3, 1)
        assert P(0, 1) ** 0 == P(1)

    def test_trailing_zeros_trimmed(self):
        assert Polynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert Polynomial((0, 0)).is_zero()

    def test_zero_degree_convention(self):
        assert P().degree == -1
        assert P(1).degree == 0


def test_polynomial_is_a_coefficient_record():
    # the ring arithmetic lives in the test oracles; __pow__, exact_div,
    # antiderivative and taylor_shift stay while bench/traced_cli.py wraps
    # them by name
    removed = {"zero", "one", "__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
               "__mul__", "__rmul__"}
    assert removed.isdisjoint(vars(Polynomial))
    assert {"__pow__", "exact_div", "antiderivative", "taylor_shift"} <= vars(Polynomial).keys()


class TestExactDiv:
    def test_q_integer_identity(self):
        assert P(1, 0, 0, 0, -1).exact_div(P(1, -1)) == P(1, 1, 1, 1)

    def test_identity_case(self):
        p = P(5, -2, 7)
        assert p.exact_div(P(1)) == p

    def test_nonzero_remainder(self):
        with pytest.raises(NonzeroRemainder):
            P(1, 0, 1).exact_div(P(1, 1))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            P(1).exact_div(P())

    @settings(max_examples=100, deadline=None, database=None)
    @given(polys, polys.filter(bool))
    def test_mul_then_div_roundtrip(self, a, b):
        assert mul(a, b).exact_div(b) == a


class TestRingAxioms:
    """The laws the oracle tests rely on, over int and Fraction coefficients."""

    @settings(max_examples=100, deadline=None, database=None)
    @given(polys, polys, polys)
    def test_axioms_on_random_sample(self, a, b, c):
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))

    @settings(max_examples=100, deadline=None, database=None)
    @given(polys)
    def test_self_difference_and_cube(self, p):
        assert sub(p, p).is_zero()
        assert p**3 == mul(mul(p, p), p)

    @settings(max_examples=100, deadline=None, database=None)
    @given(polys, scalars, scalars)
    def test_taylor_shifts_compose(self, p, a, b):
        assert p.taylor_shift(a).taylor_shift(b) == p.taylor_shift(a + b)

    @settings(max_examples=100, deadline=None, database=None)
    @given(polys, polys, scalars)
    def test_evaluation_is_multiplicative(self, p, q, x):
        assert mul(p, q).evaluate(x) == p.evaluate(x) * q.evaluate(x)


class TestRowKernels:
    """The integer-row helpers against Fraction arithmetic."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.integers(-(10**6), 10**6), st.integers(1, 10**4))
    def test_ratio_is_reduced_fraction(self, a, b):
        assert _ratio(a, b) == str(Fraction(a, b))

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=6),
           st.integers(-50, 50), st.integers(1, 50))
    def test_horner_is_scaled_evaluation(self, row, a, b):
        expected = b ** (len(row) - 1) * Polynomial(row).evaluate(Fraction(a, b))
        assert _horner(row, a, b) == expected

    @settings(max_examples=100, deadline=None, database=None)
    @given(st.lists(polys, min_size=1, max_size=4))
    @example([P()])
    def test_polys_inverts_integer_rows(self, ps):
        assert _polys(*_integer_rows(ps)) == tuple(ps)


class TestEvaluateAndCalculus:
    def test_horner_exact(self):
        assert P(1, 2, 3).evaluate(Fraction(1, 2)) == Fraction(1) + 1 + Fraction(3, 4)

    def test_constant_term(self):
        assert P(7, 1, 1).evaluate(0) == 7

    def test_derivative(self):
        assert derivative(P(5, 3, 0, 2)) == P(3, 0, 6)

    def test_antiderivative_inverts_derivative(self):
        p = P(Fraction(1, 3), 4, Fraction(-2, 7), 1)
        assert derivative(p.antiderivative()) == p

    def test_taylor_shift(self):
        p = P(1, -2, 1)  # (x-1)^2
        assert p.taylor_shift(1) == P(0, 0, 1)
        x = Fraction(9, 7)
        assert p.taylor_shift(-3).evaluate(x) == p.evaluate(x - 3)

    def test_scale_arg(self):
        p = P(1, 1, 1)
        assert scale_arg(p, 2) == P(1, 2, 4)


class TestRationals:
    def test_reduction_idempotent(self):
        x = Fraction(6, 4)
        assert Fraction(x.numerator, x.denominator) == x
        assert x.denominator > 0

    def test_addition_matches_cross_multiplication(self):
        rng = random.Random(3)
        for _ in range(200):
            a, b = rng.randint(-30, 30), rng.randint(1, 30)
            c, d = rng.randint(-30, 30), rng.randint(1, 30)
            total = Fraction(a, b) + Fraction(c, d)
            assert total * (b * d) == a * d + c * b


class TestSolver:
    def test_identity_matrix(self):
        rhs = [Fraction(2), Fraction(-7, 3), Fraction(0)]
        eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert solve_linear_rational(eye, rhs) == rhs

    def test_line_through_two_points(self):
        # Vandermonde at nodes 0 and 1, values 1 and 2: constant 1, slope 1
        assert solve_linear_rational([[1, 0], [1, 1]], [1, 2]) == [1, 1]

    def test_singular(self):
        with pytest.raises(SingularSystem):
            solve_linear_rational([[1, 2], [1, 2]], [1, 1])

    def test_exact_solution(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 5)
            a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
            x = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            rhs = [sum(a[i][j] * x[j] for j in range(n)) for i in range(n)]
            try:
                assert solve_linear_rational(a, rhs) == x
            except SingularSystem:
                pass  # random matrix happened to be singular


class TestToString:
    def test_descending_rationals(self):
        p = Polynomial((1, Fraction(1, 2), Fraction(5, 48), Fraction(1, 144)))
        assert p.to_string("m", descending=True) == "1/144 m^3 + 5/48 m^2 + 1/2 m + 1"

    def test_signs_and_units(self):
        assert P(-1, 0, 2).to_string("x", descending=True) == "2 x^2 - 1"
        assert P(0, 1).to_string("x") == "x"
        assert P().to_string() == "0"

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(-3, 3),
                st.integers(-(10**30), 10**30),
                st.fractions(max_denominator=50),
            ),
            max_size=8,
        ),
        st.booleans(),
    )
    def test_matches_comparison_rendering(self, coeffs, descending):
        p = Polynomial(coeffs)
        assert p.to_string("m", descending) == to_string_oracle(p, "m", descending)


def to_string_oracle(poly, var, descending):
    """Oracle rendering by Fraction comparison, negation and str()."""
    if not poly.coeffs:
        return "0"
    terms = []
    indices = range(len(poly.coeffs))
    if descending:
        indices = reversed(indices)
    for i in indices:
        c = poly.coeffs[i]
        if c == 0:
            continue
        mag = -c if c < 0 else c
        if i == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else f"{mag} "
            body = f"{head}{var}" if i == 1 else f"{head}{var}^{i}"
        terms.append(("-" if c < 0 else "+", body))
    sign, first = terms[0]
    text = first if sign == "+" else f"-{first}"
    for sign, body in terms[1:]:
        text += f" {sign} {body}"
    return text
