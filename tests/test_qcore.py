import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshape.errors import InvalidArguments, NegativeCoefficient, ZeroPolynomial
from qshape.exactnum import Polynomial
from qshape.measure import convergence_table
from qshape.qcore import (
    _box_series,
    coefficient_report,
    q_binomial,
    q_binomial_box,
    q_binomial_partition_dp,
    q_binomial_pascal,
    q_factorial,
)
from qshape.quasi import initial_quasipolynomial, numerator_expansion, reciprocal_series
from qshape.shape import limit_shape

from oracles import hammer, parts_at_most_k_denominator, q_integer, run_python


def count_partitions_in_box(size, max_parts, max_part):
    """Brute-force oracle: partitions of `size` with at most `max_parts`
    parts, each at most `max_part`, counted by explicit recursion."""
    def count(remaining, parts_left, cap):
        if remaining == 0:
            return 1
        if parts_left == 0:
            return 0
        return sum(
            count(remaining - p, parts_left - 1, p)
            for p in range(1, min(remaining, cap) + 1)
        )
    return count(size, max_parts, max_part)


class TestQInteger:
    def test_one(self):
        assert q_integer(1) == Polynomial((1,))

    def test_zero_is_empty_sum(self):
        assert q_integer(0).is_zero()

    def test_four(self):
        assert q_integer(4) == Polynomial((1, 1, 1, 1))

    def test_negative(self):
        with pytest.raises(InvalidArguments):
            q_integer(-1)


class TestQFactorial:
    def test_empty_product(self):
        assert q_factorial(0) == Polynomial((1,))

    def test_two(self):
        assert q_factorial(2) == Polynomial((1, 1))

    def test_three_hand_expansion(self):
        # (1+q)(1+q+q^2) multiplied out by hand
        assert q_factorial(3) == Polynomial((1, 2, 2, 1))

    def test_call_depth_does_not_grow_with_n(self):
        # the product is built in a loop, not once per factor through the
        # cache: under a recursion limit of 100, [200]!_q still has degree
        # n(n-1)/2 and coefficient sum n!
        code = ("import math, sys\n"
                "from qshape.qcore import q_factorial\n"
                "sys.setrecursionlimit(100)\n"
                "n, p = 200, q_factorial(200)\n"
                "assert p.degree == n * (n - 1) // 2 and sum(p.coeffs) == math.factorial(n)\n")
        run_python("-c", code, check=True)


class TestQBinomial:
    def test_empty_selection(self):
        assert q_binomial(4, 0) == Polynomial((1,))

    def test_k_one_is_q_integer(self):
        assert q_binomial(4, 1) == q_integer(4)

    def test_4_choose_2_against_partition_enumeration(self):
        expected = Polynomial(
            tuple(count_partitions_in_box(i, 2, 2) for i in range(5))
        )
        assert q_binomial(4, 2) == expected
        assert expected == Polynomial((1, 1, 2, 1, 1))

    def test_invalid_arguments(self):
        with pytest.raises(InvalidArguments):
            q_binomial(3, 4)
        with pytest.raises(InvalidArguments):
            q_binomial(3, -1)

    def test_degree_and_ends(self):
        for n in range(0, 11):
            for k in range(0, 5):
                p = q_binomial_box(n, k)
                assert p.degree == n * k
                assert p.coefficient(0) == 1
                assert p.coefficient(n * k) == 1

    def test_complementation(self):
        for n in range(0, 11):
            for k in range(0, n + 1):
                assert q_binomial(n, k) == q_binomial(n, n - k)


class TestPascal:
    def test_boundary(self):
        assert q_binomial_pascal(5, 5) == Polynomial((1,))

    def test_base_combination(self):
        assert q_binomial_pascal(2, 1) == Polynomial((1, 1))


class TestPartitionDP:
    def test_empty_box(self):
        for k in range(5):
            assert q_binomial_partition_dp(0, k) == Polynomial((1,))

    def test_two_by_two_box(self):
        # partitions: {}, {1}, {2}, {1,1}, {2,1}, {2,2}
        assert q_binomial_partition_dp(2, 2) == Polynomial((1, 1, 2, 1, 1))

    def test_single_row(self):
        assert q_binomial_partition_dp(1, 3) == Polynomial((1, 1, 1, 1))

    def test_against_enumeration_oracle(self):
        for n in range(0, 5):
            for k in range(0, 5):
                expected = tuple(
                    count_partitions_in_box(i, n, k) for i in range(n * k + 1)
                )
                assert q_binomial_partition_dp(n, k) == Polynomial(expected)


@st.composite
def box_series_args(draw):
    """(n, k, count) with 0 <= n, k <= 12 and count running past n*k + 1."""
    n, k = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    return n, k, draw(st.integers(1, n * k + 3))


def padded_box(n, k, count):
    """The first count coefficients of the partition-DP oracle, zero past n*k."""
    coeffs = list(q_binomial_partition_dp(n, k).coeffs)
    return (coeffs + [0] * count)[:count]


def parts_at_most(k, count):
    """The first count coefficients of 1 / ((1-q)...(1-q^k))."""
    return reciprocal_series(parts_at_most_k_denominator(k), count)


class TestBoxSeries:
    """_box_series(n, k, count), the truncated product formula behind both the
    box polynomial and the base series of partitions into parts <= k."""

    @settings(max_examples=200)
    @given(box_series_args())
    def test_matches_partition_dp(self, args):
        n, k, count = args
        assert _box_series(n, k, count) == padded_box(n, k, count)

    @settings(max_examples=200)
    @given(st.integers(0, 12), st.integers(1, 60), st.integers(0, 3))
    def test_numerator_past_truncation_leaves_partition_series(self, k, count, extra):
        assert _box_series(count - 1 + extra, k, count) == parts_at_most(k, count)

    def test_numerator_factor_at_truncation_edge(self):
        # n + i = count - 1: the factor (1 - q^(n+i)) touches the last
        # coefficient kept; n + i = count: it falls just outside
        for n in range(13):
            for k in range(1, 13):
                full = padded_box(n, k, n + k + 1)
                for i in range(1, k + 1):
                    for count in (n + i, n + i + 1):
                        assert _box_series(n, k, count) == full[:count], (n, k, i, count)


class TestThreads:
    def test_concurrent_calls_match_serial(self):
        # Sizes beyond those other tests use, so a shared cache would have
        # to grow while the threads race on it.
        calls = (
            [(q_binomial_pascal, (44 + t, 5)) for t in range(8)]
            + [(q_binomial_box, (40 + t, 6)) for t in range(8)]
            + [(q_factorial, (60 + t,)) for t in range(8)]
        )
        # Pascal is checked against the engine: a corrupted Pascal cache
        # would also corrupt a serial Pascal result taken afterwards.
        serial = {
            (fn, args): q_binomial_box(args[0] - args[1], args[1])
            if fn is q_binomial_pascal else fn(*args)
            for fn, args in calls
        }
        for slot in hammer(calls):
            assert len(slot) == len(calls)
            for key, value in slot:
                assert value == serial[key]

    def test_cached_paths_match_serial(self):
        cached = (initial_quasipolynomial, numerator_expansion, limit_shape)
        calls = [(fn, (k,)) for k in range(1, 7) for fn in cached]
        serial = {(fn, args): fn(*args) for fn, args in calls}
        # empty caches, so the threads race to fill them
        for fn in cached:
            fn.cache_clear()
        for slot in hammer(calls):
            assert len(slot) == len(calls)
            for key, value in slot:
                assert value == serial[key]

    def test_shape_paths_match_serial(self):
        calls = (
            [(convergence_table, (k, (10, 40, 160))) for k in range(1, 9)]
            + [(shape_cdf, (k, Fraction(j, 7))) for k in range(1, 9) for j in range(8)]
        )
        serial = {(fn, args): fn(*args) for fn, args in calls}
        limit_shape.cache_clear()
        for slot in hammer(calls):
            assert len(slot) == len(calls)
            for key, value in slot:
                assert value == serial[key]


def shape_cdf(k, x):
    return limit_shape(k).cdf(x)


P61 = 2**61 - 1


def fingerprint(p, r):
    """p(r) mod 2^61 - 1 by Horner's rule."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = (acc * r + c) % P61
    return acc


def product_fingerprint(n, k, r):
    """prod_{i=1..k} (1 - r^(n+i)) / (1 - r^i) mod 2^61 - 1."""
    acc = 1
    for i in range(1, k + 1):
        den = (1 - pow(r, i, P61)) % P61
        assert den, "r must not be a root of 1 - q^i"
        acc = acc * (1 - pow(r, n + i, P61)) * pow(den, -1, P61) % P61
    return acc


class TestLargeCertificates:
    """O(nk) certificates for sizes far beyond the oracles' reach.

    The engine computes the lower half of the coefficients and mirrors it, so
    symmetry holds by construction; the q = 1, q = -1 and mod 2^61 - 1
    checks cover the mirrored half."""

    SIZES = [(10000, 8), (4999, 7), (8, 10000), (5000, 3), (1200, 2), (10000, 1), (0, 10000),
             (1000, 50)]

    @pytest.fixture(scope="class")
    def polys(self):
        return {(n, k): q_binomial_box(n, k) for n, k in self.SIZES}

    def test_q1_is_binomial(self, polys):
        for (n, k), p in polys.items():
            assert p.degree == n * k
            assert sum(p.coeffs) == math.comb(n + k, k)

    def test_q_minus_1_closed_form(self, polys):
        for (n, k), p in polys.items():
            big_n = n + k
            expected = 0 if big_n % 2 == 0 and k % 2 == 1 else math.comb(big_n // 2, k // 2)
            assert p.evaluate(-1) == expected

    def test_symmetric(self, polys):
        for p in polys.values():
            assert p.coeffs == p.coeffs[::-1]

    def test_modular_fingerprint(self, polys):
        for (n, k), p in polys.items():
            for r in (3, 1234567891011, 2**40 + 15):
                assert fingerprint(p, r) == product_fingerprint(n, k, r)


class TestEvaluate:
    def test_q1_gives_binomial(self):
        assert q_binomial(6, 3).evaluate(1) == 20

    def test_q1_specialization_full_range(self):
        for n in range(0, 41):
            for k in range(0, n + 1):
                assert q_binomial(n, k).evaluate(1) == math.comb(n, k)

    def test_constant_term_at_zero(self):
        assert q_binomial(7, 3).evaluate(0) == 1


class TestCoefficientReport:
    def test_symmetric_unimodal(self):
        report = coefficient_report(Polynomial((1, 1, 2, 1, 1)))
        assert report.symmetric and report.unimodal
        assert report.total == 6
        assert report.peak_index_range == (2, 2)

    def test_demo_polynomial_neither(self):
        report = coefficient_report(Polynomial((1, 3, 9, 0, 4, 2, 9)))
        assert not report.symmetric
        assert not report.unimodal

    def test_constant(self):
        report = coefficient_report(Polynomial((1,)))
        assert report.symmetric and report.unimodal and report.total == 1
        assert report.peak_index_range == (0, 0)

    def test_plateau_is_unimodal(self):
        assert coefficient_report(Polynomial((1, 2, 2, 1))).unimodal

    def test_peak_centered_when_symmetric(self):
        for n in range(1, 9):
            for k in range(1, 5):
                p = q_binomial_box(n, k)
                report = coefficient_report(p)
                assert report.symmetric and report.unimodal
                first, last = report.peak_index_range
                assert first + last == p.degree

    def test_symmetric_unimodal_across_oracle_range(self):
        for n in range(0, 31, 3):
            for k in range(1, 9):
                report = coefficient_report(q_binomial_box(n, k))
                assert report.symmetric and report.unimodal

    @settings(max_examples=300)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=10).filter(lambda cs: cs[-1]))
    def test_matches_definition(self, cs):
        # unimodal iff some p has cs[:p+1] non-decreasing and cs[p:] non-increasing
        def rises(xs):
            return all(a <= b for a, b in zip(xs, xs[1:]))
        report = coefficient_report(Polynomial(cs))
        assert report.unimodal == any(rises(cs[: p + 1]) and rises(cs[p:][::-1])
                                      for p in range(len(cs)))
        peaks = [i for i, c in enumerate(cs) if c == max(cs)]
        assert report.peak_index_range == (peaks[0], peaks[-1])
        assert report.symmetric == (cs == cs[::-1]) and report.total == sum(cs)

    def test_errors(self):
        with pytest.raises(NegativeCoefficient):
            coefficient_report(Polynomial((1, -1, 1)))
        with pytest.raises(ZeroPolynomial):
            coefficient_report(Polynomial(()))
