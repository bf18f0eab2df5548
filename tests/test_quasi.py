import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshape import quasi
from qshape.errors import (
    IndexOutOfRange,
    InsufficientSamples,
    InvalidArguments,
    NonUnitConstantTerm,
    ValidationFailure,
)
from qshape.exactnum import Polynomial, solve_linear_rational
from qshape.qcore import q_binomial_box
from qshape.quasi import (
    Quasipolynomial,
    SignedTerm,
    coefficient_via_recursion,
    demo_quasipolynomial,
    fit_quasipolynomial,
    initial_quasipolynomial,
    min_region_n,
    numerator_expansion,
    reciprocal_series,
    region_decomposition,
)

from oracles import (
    add, monomial, mul, parts_at_most_k_denominator, series_fit_formulas, sub, value,
)


def two_periods(k):
    """2 lcm(1..k), the least n these tests have long drawn regions from."""
    return 2 * math.lcm(*range(1, k + 1))


class TestReciprocalSeries:
    def test_geometric(self):
        assert reciprocal_series(Polynomial((1, -1)), 4) == [1, 1, 1, 1]

    def test_partition_count_by_hand(self):
        # partitions of 5 into parts <= 4: 41, 32, 311, 221, 2111, 11111
        series = reciprocal_series(parts_at_most_k_denominator(4), 6)
        assert series[5] == 6

    def test_derivative_of_geometric(self):
        den = mul(Polynomial((1, -1)), Polynomial((1, -1)))
        assert reciprocal_series(den, 4) == [1, 2, 3, 4]

    def test_non_unit_constant_term(self):
        with pytest.raises(NonUnitConstantTerm):
            reciprocal_series(Polynomial((2, 1)), 3)
        with pytest.raises(NonUnitConstantTerm):
            reciprocal_series(Polynomial(()), 3)

    def test_multiplies_back_to_one(self):
        den = parts_at_most_k_denominator(3)
        count = 30
        series = Polynomial(tuple(reciprocal_series(den, count)))
        product = mul(series, den)
        assert product.coefficient(0) == 1
        assert all(product.coefficient(i) == 0 for i in range(1, count - den.degree))


class TestFit:
    def test_constant_sequence(self):
        q = fit_quasipolynomial([5] * 8, 0, 1, 0)
        assert q.period == 1 and q.polys[0] == Polynomial((5,))

    def test_perfect_squares(self):
        q = fit_quasipolynomial([m * m for m in range(10)], 0, 1, 2)
        assert q.polys[0] == Polynomial((0, 0, 1))

    def test_start_index_offset(self):
        q = fit_quasipolynomial([m * m for m in range(3, 13)], 3, 1, 2)
        assert q.polys[0] == Polynomial((0, 0, 1))

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            fit_quasipolynomial([1, 2, 3], 0, 1, 2)

    def test_validation_failure(self):
        # 2^m is not a polynomial of degree 3; the cubic through m = 0..3
        # first misses at m = 4
        with pytest.raises(ValidationFailure, match=r"at m=4:"):
            fit_quasipolynomial([2 ** m for m in range(10)], 0, 1, 3)

    def test_validation_failure_names_first_outlier(self):
        values = [m * m for m in range(14)]
        values[9] += 1
        with pytest.raises(ValidationFailure, match=r"residue 0 fit fails at m=9:"):
            fit_quasipolynomial(values, 0, 1, 2)
        # the same outlier in residue 1 of a period-2 fit
        with pytest.raises(ValidationFailure, match=r"residue 1 fit fails at m=9:"):
            fit_quasipolynomial(values, 0, 2, 2)

    @settings(max_examples=300)
    @given(st.data())
    def test_matches_per_residue_oracle(self, data):
        period = data.draw(st.integers(1, 8), label="period")
        degree = data.draw(st.integers(0, 4), label="degree")
        start = data.draw(st.integers(-30, 60), label="start")
        # integer-valued residue polynomials sum_i a_i binom(m, i); one
        # window in four falls short of 2*(degree+1) samples for some class
        coeffs = data.draw(st.lists(
            st.lists(st.integers(-50, 50), min_size=degree + 1, max_size=degree + 1),
            min_size=period, max_size=period), label="coeffs")
        need = 2 * (degree + 1) * period
        short = data.draw(st.integers(0, 3), label="short") == 3
        length = data.draw(
            st.integers(0, need - 1) if short else st.integers(need, need + 3 * period),
            label="length")
        values = [
            sum(a * generalized_binomial(m, i) for i, a in enumerate(coeffs[m % period]))
            for m in range(start, start + length)
        ]
        for i, bump in data.draw(st.lists(
                st.tuples(st.integers(0, max(length - 1, 0)), st.integers(-3, 3)),
                max_size=2), label="outliers"):
            if i < length:
                values[i] += bump
        try:
            expected = fit_per_residue(values, start, period, degree)
        except (InsufficientSamples, ValidationFailure) as exc:
            with pytest.raises(type(exc)) as got:
                fit_quasipolynomial(values, start, period, degree)
            assert str(got.value) == str(exc)
            return
        q = fit_quasipolynomial(values, start, period, degree)
        polys = q.polys
        assert polys == expected.polys
        assert Quasipolynomial(period, polys) == q == expected
        assert q.degree == max(p.degree for p in polys)
        for m in range(start - 2 * period, start + length + 2 * period):
            assert q.evaluate(m) == value(polys[m % period], m)
        # the integer rows render as the Fraction polynomials do
        assert q.residue_strings() == [p.to_string("m", True) for p in polys]
        assert q.residue_coefficients() == [[str(c) for c in p.coeffs] for p in polys]

    def test_alternating_period_two(self):
        values = [m if m % 2 else 3 * m for m in range(12)]
        q = fit_quasipolynomial(values, 0, 2, 1)
        assert q.polys[0] == Polynomial((0, 3))
        assert q.polys[1] == Polynomial((0, 1))


def fit_per_residue(values, start_index, period, degree):
    """Oracle fit, one residue class at a time: a forward-difference table of
    the class's samples, checked to order degree+1 and converted from Newton
    form into one Fraction polynomial per residue."""
    if period < 1 or degree < 0:
        raise InvalidArguments("need period >= 1 and degree >= 0")
    need = 2 * (degree + 1)
    scale = math.factorial(degree) * period**degree
    polys = []
    for r in range(period):
        m0 = start_index + (r - start_index) % period
        row = list(values[m0 - start_index :: period])
        if len(row) < need:
            raise InsufficientSamples(f"residue {r}: {len(row)} samples, need {need}")
        acc, basis = [0] * (degree + 1), [1]
        for j in range(degree + 1):
            # add row[0] / (j! period^j) * prod_{i<j} (m - m0 - i*period)
            weight = row[0] * (scale // (math.factorial(j) * period**j))
            for i, c in enumerate(basis):
                acc[i] += weight * c
            basis = [a - (m0 + j * period) * b for a, b in zip([0] + basis, basis + [0])]
            row = [b - a for a, b in zip(row, row[1:])]
        # a nonzero row[i] (order degree+1) means sample i+degree+1 is off the fit
        bad = next((i for i, v in enumerate(row) if v), None)
        if bad is not None:
            raise ValidationFailure(
                f"residue {r} fit fails at m={m0 + (bad + degree + 1) * period}: "
                f"not quasipolynomial with period {period}, degree {degree}"
            )
        polys.append(Polynomial(Fraction(c, scale) for c in acc))
    return Quasipolynomial(period, tuple(polys))


def generalized_binomial(m, i):
    """m(m-1)...(m-i+1) / i!, an integer for every integer m."""
    return math.prod(range(m - i + 1, m + 1)) // math.factorial(i)


def vandermonde_fit(values, period, degree):
    """Oracle fit: per residue, one rational Gaussian elimination on the
    Vandermonde system of its first degree+1 samples (from m = 0)."""
    polys = []
    for r in range(period):
        ms = range(r, r + (degree + 1) * period, period)
        matrix = [[Fraction(m) ** j for j in range(degree + 1)] for m in ms]
        polys.append(Polynomial(solve_linear_rational(matrix, [values[m] for m in ms])))
    return tuple(polys)


def shift_and_add_formulas(n, k):
    """Oracle region formulas: region r sums c * base(m - e) over the
    numerator terms c * q^e of blocks <= r, one Taylor shift per term."""
    base = initial_quasipolynomial(k)
    sums = [Polynomial(())] * base.period
    formulas = []
    for r in range(k):
        for t in numerator_expansion(k):
            if t.block == r:
                shifted = base.arg_shifted(t.exponent(n))
                c = t.sign * t.multiplicity
                sums = [add(s, mul(p, c)) for s, p in zip(sums, shifted.polys)]
        formulas.append(tuple(sums))
    return formulas


def scan_valid_from(formula, true, right):
    """Oracle valid_from: walk down from right while the formula matches the
    true coefficients; the smallest m of that run."""
    m = right
    while m >= 0 and formula.evaluate(m) == true[m]:
        m -= 1
    return m + 1


def with_extra_term(monkeypatch, k, term):
    """Make region_decomposition see numerator_expansion(k) plus term."""
    terms = numerator_expansion(k) + (term,)
    monkeypatch.setattr(quasi, "numerator_expansion", lambda _: terms)


def assert_zone_values(decomp, true):
    """zone_values holds the true coefficients on each transition zone."""
    assert len(decomp.zone_values) == len(decomp.transition_zones) == decomp.k - 1
    for (left, right), values in zip(decomp.transition_zones, decomp.zone_values):
        assert values == true[left:right + 1], (decomp.n, decomp.k, left)


def assert_formulas_reflect(n, k, ms=()):
    """G_(k-1-r)(m) = G_r(nk - m) for every region r, exactly, at m over two
    periods on each side of 0 and at each of ms: the box's palindromy
    c_m = c_(nk-m) carried over to the formulas.  Only the formulas reflect;
    the intervals are conservative and are not mirror images."""
    formulas = [region.formula for region in region_decomposition(n, k).regions]
    period = formulas[0].period
    for r, f in enumerate(formulas):
        g = formulas[k - 1 - r]
        for m in (*range(-2 * period, 2 * period), *ms):
            assert f._numerator(m) * g.den == g._numerator(n * k - m) * f.den, (n, k, r, m)


class TestInitialQuasipolynomial:
    def test_k1_constant_one(self):
        q = initial_quasipolynomial(1)
        assert q.period == 1
        assert q.polys[0] == Polynomial((1,))

    def test_k2_floor_formula(self):
        # partitions into parts <= 2: floor(m/2) + 1
        q = initial_quasipolynomial(2)
        assert q.period == 2
        assert q.polys[0] == Polynomial((1, Fraction(1, 2)))
        assert q.polys[1] == Polynomial((Fraction(1, 2), Fraction(1, 2)))

    def test_k4_value_at_five(self):
        assert initial_quasipolynomial(4).evaluate(5) == 6

    def test_matches_series_far_beyond_fit_window(self):
        for k in (2, 3, 4, 5):
            q = initial_quasipolynomial(k)
            count = 2 * k * q.period + 50
            series = reciprocal_series(parts_at_most_k_denominator(k), count)
            assert all(q.evaluate(m) == series[m] for m in range(count))

    def test_matches_vandermonde_fit(self):
        for k in range(1, 7):
            q = initial_quasipolynomial(k)
            series = reciprocal_series(parts_at_most_k_denominator(k), 2 * k * q.period)
            assert q.polys == vandermonde_fit(series, q.period, k - 1)

    def test_period_is_lcm(self):
        for k in range(1, 7):
            assert initial_quasipolynomial(k).period == math.lcm(*range(1, k + 1))

    def test_degree(self):
        for k in range(1, 7):
            assert initial_quasipolynomial(k).degree == k - 1

    def test_top_coefficients_constant_across_residues(self):
        # only coefficients of degree <= floor(k/2) - 1 vary with the residue
        for k in range(1, 7):
            q = initial_quasipolynomial(k)
            cut = k // 2 - 1
            tops = {
                tuple(p.coefficient(d) for d in range(cut + 1, k)) for p in q.polys
            }
            assert len(tops) == 1

    def test_column_periods_are_graded(self):
        # Sylvester's waves: the coefficient of m^i repeats with a period
        # dividing lcm(1..floor(k/(i+1))), and region formulas inherit it
        for k in range(1, 11):
            formulas = [initial_quasipolynomial(k)]
            if k <= 9:
                formulas += [g.formula for g in region_decomposition(two_periods(k), k).regions]
            for f in formulas:
                assert len(f.cols) == k
                for i, col in enumerate(f.cols):
                    assert math.lcm(*range(1, k // (i + 1) + 1)) % len(col) == 0, (k, i)

    def test_low_coefficients_do_vary(self):
        # the periodic part is genuinely periodic for k >= 2
        for k in range(2, 7):
            q = initial_quasipolynomial(k)
            assert len(set(q.polys)) > 1


class TestNumeratorExpansion:
    def test_k1(self):
        assert numerator_expansion(1) == (
            SignedTerm(1, 1, 0, 0),
            SignedTerm(-1, 1, 1, 1),
        )

    def test_terms_count_partitions(self):
        # each coefficient of [k choose j]_q counts a nonempty set of
        # partitions, so no term is zero; at q = 1 block j sums to C(k, j)
        # and the whole product (1 - q^(n+1))...(1 - q^(n+k)) vanishes
        for k in range(1, 13):
            terms = numerator_expansion(k)
            assert all(t.multiplicity >= 1 for t in terms)
            for j in range(k + 1):
                assert sum(t.multiplicity for t in terms if t.block == j) == math.comb(k, j)
            assert sum(t.sign * t.multiplicity for t in terms) == 0

    def test_identity_for_concrete_n(self):
        for k in range(1, 7):
            for n in (0, 1, 2, 5, 17, 30):
                product = Polynomial((1,))
                for i in range(1, k + 1):
                    product = mul(product, sub(1, monomial(n + i)))
                total = Polynomial(())
                for t in numerator_expansion(k):
                    total = add(total, monomial(t.exponent(n), t.sign * t.multiplicity))
                assert total == product


class TestCoefficientViaRecursion:
    def test_initial_segment_is_base_values(self):
        base = initial_quasipolynomial(3)
        for n in (10, 25):
            for m in range(n + 1):
                assert coefficient_via_recursion(n, 3, m) == base.evaluate(m)

    def test_full_agreement_small(self):
        p = q_binomial_box(10, 3)
        for m in range(31):
            assert coefficient_via_recursion(10, 3, m) == p.coefficient(m)

    def test_full_agreement_k_up_to_six(self):
        # small n, so every transition zone and region is crossed
        for k, n in ((4, 24), (4, 31), (5, 13), (6, 9)):
            p = q_binomial_box(n, k)
            for m in range(n * k + 1):
                assert coefficient_via_recursion(n, k, m) == p.coefficient(m)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            coefficient_via_recursion(10, 3, 31)
        with pytest.raises(IndexOutOfRange):
            coefficient_via_recursion(10, 3, -1)


class TestRegionDecomposition:
    def test_k4_structure(self):
        decomp = region_decomposition(50, 4)
        assert len(decomp.regions) == 4
        for region in decomp.regions:
            assert region.formula.period == 12
            assert region.formula.degree == 3
        assert decomp.transition_zones == ((51, 53), (103, 106), (156, 158))

    def test_k1_trivial(self):
        decomp = region_decomposition(50, 1)
        assert len(decomp.regions) == 1
        assert decomp.transition_zones == ()
        region = decomp.regions[0]
        assert (region.left, region.right) == (0, 50)
        assert region.formula.polys[0] == Polynomial((1,))

    def test_regions_and_zones_tile_domain(self):
        for n, k in ((50, 4), (40, 3), (16, 2)):
            decomp = region_decomposition(n, k)
            intervals = sorted(
                [(r.left, r.right) for r in decomp.regions]
                + list(decomp.transition_zones)
            )
            assert intervals[0][0] == 0 and intervals[-1][1] == n * k
            for (_, b), (a2, _) in zip(intervals, intervals[1:]):
                assert a2 == b + 1

    def test_formulas_exact_on_their_intervals(self):
        for n, k in ((50, 4), (40, 3)):
            decomp = region_decomposition(n, k)
            true = q_binomial_box(n, k)
            for region in decomp.regions:
                for m in range(region.left, region.right + 1):
                    assert region.formula.evaluate(m) == true.coefficient(m)

    def test_zone_lengths_mirror_around_center(self):
        decomp = region_decomposition(50, 4)
        widths = [b - a + 1 for a, b in decomp.transition_zones]
        assert widths == widths[::-1]

    def test_valid_from_never_exceeds_tile_start(self):
        # the validity interval contains the tile
        for n, k in ((50, 4), (40, 3), (16, 2)):
            for region in region_decomposition(n, k).regions:
                assert region.valid_from <= region.left

    @pytest.mark.parametrize(
        "n, k",
        [(16, 2), (17, 2), (41, 3), (24, 4), (50, 4), (77, 4), (120, 5),
         (131, 5), (120, 6), (200, 6), (840, 7)],
    )
    def test_valid_from_matches_scan(self, n, k):
        true = q_binomial_box(n, k).coeffs
        for region in region_decomposition(n, k).regions:
            assert region.valid_from == scan_valid_from(region.formula, true, region.right)

    @settings(max_examples=10)
    @given(st.data())
    def test_valid_from_matches_scan_property(self, data):
        k = data.draw(st.integers(1, 6), label="k")
        n = data.draw(st.integers(two_periods(k), 3 * two_periods(k)), label="n")
        true = q_binomial_box(n, k).coeffs
        spill = k * (k + 1) // 2 - 1
        for region in region_decomposition(n, k).regions:
            closed = region.left - spill if region.index else 0
            assert region.valid_from == closed
            assert closed == scan_valid_from(region.formula, true, region.right)

    def test_certificate_catches_mismatch_at_valid_from(self, monkeypatch):
        # a second block-0 term at e = 0 doubles region 0 at valid_from = 0
        with_extra_term(monkeypatch, 2, SignedTerm(1, 1, 0, 0))
        with pytest.raises(ArithmeticError, match=r"region 0 .* at m=0"):
            region_decomposition(16, 2)

    def test_certificate_catches_match_below_valid_from(self, monkeypatch):
        # F vanishes at -1..1-T and F(-T) = +-1 (T = k(k+1)/2), so a term
        # c * q^left moves region 1 at valid_from - 1 = left - T only: pick c
        # to close the gap to the true value there
        n, k = 16, 2
        region = region_decomposition(n, k).regions[1]
        m, spill = region.valid_from - 1, k * (k + 1) // 2
        gap = q_binomial_box(n, k).coeffs[m] - region.formula.evaluate(m)
        c = gap * initial_quasipolynomial(k).evaluate(-spill)
        assert m == region.left - spill and gap and c.denominator == 1
        term = SignedTerm(1 if c > 0 else -1, abs(int(c)), region.left - n, 1)
        with_extra_term(monkeypatch, k, term)
        with pytest.raises(ArithmeticError, match=rf"region 1 .* at m={region.valid_from}"):
            region_decomposition(n, k)

    @pytest.mark.parametrize("e", range(1, 10))
    def test_certificate_checks_against_the_truth(self, monkeypatch, e):
        # a bogus block-0 term c * q^e with 0 < e < T = 10 leaves region 0 at
        # m = 0 alone and shifts every later formula alike, so only a check
        # against the true coefficients, not against the previous formula,
        # sees it at region 1
        with_extra_term(monkeypatch, 4, SignedTerm(1, 1, e, 0))
        with pytest.raises(ArithmeticError, match=r"^region 1 formula does not start matching"):
            region_decomposition(30, 4)

    def test_certificate_catches_a_later_block(self, monkeypatch):
        # a bogus block-2 term at region 2's valid_from (F(0) = 1, F(-1) = 0)
        n, k = 30, 4
        start = region_decomposition(n, k).regions[2].valid_from
        with_extra_term(monkeypatch, k, SignedTerm(1, 1, start - 2 * n, 2))
        with pytest.raises(ArithmeticError, match=rf"^region 2 .* at m={start}$"):
            region_decomposition(n, k)

    def test_large_formulas_match_coefficients(self):
        # every formula of (2520, 8), on all of [valid_from, right]
        true = q_binomial_box(2520, 8).coeffs
        for region in region_decomposition(2520, 8).regions:
            f = region.formula
            span = range(region.valid_from, region.right + 1)
            assert all(f.evaluate(m) == true[m] for m in span)

    def test_right_endpoints_below_next_block(self):
        decomp = region_decomposition(50, 4)
        for region in decomp.regions[:-1]:
            next_block_start = (region.index + 1) * 50 + (region.index + 1) * (region.index + 2) // 2
            assert region.right == next_block_start - 1

    def test_zone_values_are_the_box_slices(self):
        for n, k in [(2, 1), (24, 4), (120, 5)]:
            assert_zone_values(region_decomposition(n, k), q_binomial_box(n, k).coeffs)

    def test_n_too_small(self):
        with pytest.raises(InvalidArguments):
            region_decomposition(5, 4)
        with pytest.raises(InvalidArguments, match="need n >= 9"):
            region_decomposition(8, 4)
        assert min_region_n(4) == 9
        with pytest.raises(InvalidArguments, match="^n=43 too small for k=9: need n >= 44$"):
            quasi._region_intervals(43, 9)
        with pytest.raises(InvalidArguments, match="^needs k >= 1$"):
            quasi._region_intervals(5, 0)

    @pytest.mark.parametrize("k", [-2, 0, 1, 4, 9, 12, 13, 25])
    def test_too_small_n_is_reported_first(self, k):
        # _region_intervals holds the one check of k and n: below min_region_n(k),
        # region_decomposition raises its message, also for k past REGIONS_MAX_K
        for n in (-1, min_region_n(k) - 1):
            with pytest.raises(InvalidArguments) as expected:
                quasi._region_intervals(n, k)
            with pytest.raises(InvalidArguments) as raised:
                region_decomposition(n, k)
            assert str(raised.value) == str(expected.value), (n, k)

    @pytest.mark.parametrize("k", [13, 25])
    def test_k_past_its_bound_is_refused_once_n_is_large_enough(self, k):
        for n in (min_region_n(k), 10**6):
            with pytest.raises(InvalidArguments, match=f"^region formulas need k <= "
                                                       f"{quasi.REGIONS_MAX_K}, got k={k}: "):
                region_decomposition(n, k)

    def test_intervals_match_the_decomposition(self):
        # the closed form against the regions, and against its derivation from
        # the numerator terms: left is the largest exponent of blocks <= r,
        # right one below the smallest of block r + 1 (n*k for the last region)
        for k in range(1, 10):
            for n in (min_region_n(k), min_region_n(k) + 1, two_periods(k) + 7):
                intervals = quasi._region_intervals(n, k)
                exps = [[t.exponent(n) for t in numerator_expansion(k) if t.block == r]
                        for r in range(k + 1)]
                derived = [(max(max(e) for e in exps[:r + 1]),
                            n * k if r == k - 1 else min(exps[r + 1]) - 1) for r in range(k)]
                assert intervals == derived, (n, k)
                regions = region_decomposition(n, k).regions
                assert intervals == [(g.left, g.right) for g in regions], (n, k)

    def test_formulas_match_coefficients_from_the_least_n(self):
        # from n = (k-1)(k+2)/2 on, the last region [(k-1)n + k(k+1)/2 - 1, nk]
        # is nonempty and every formula holds exactly from its valid_from
        for k in range(2, 9):
            assert min_region_n(k) == (k - 1) * (k + 2) // 2
            for n in range(min_region_n(k), min_region_n(k) + 31):
                true = q_binomial_box(n, k).coeffs
                decomp = region_decomposition(n, k)
                assert_zone_values(decomp, true)
                for region in decomp.regions:
                    f, start = region.formula, region.valid_from
                    assert start <= region.left <= region.right, (n, k, region.index)
                    assert all(f.evaluate(m) == true[m] for m in range(start, region.right + 1))
                    assert start == 0 or f.evaluate(start - 1) != true[start - 1], (n, k)

    @pytest.mark.parametrize("n, k", [(16, 2), (24, 4), (2520, 8), (5040, 9)])
    def test_formulas_match_series_fit(self, n, k):
        expected = series_fit_formulas(n, k)
        for region, fit in zip(region_decomposition(n, k).regions, expected, strict=True):
            assert region.formula == fit
            assert (region.formula.cols, region.formula.den) == (fit.cols, fit.den)

    @settings(max_examples=15)
    @given(st.data())
    def test_formulas_match_series_fit_property(self, data):
        k = data.draw(st.integers(1, 7), label="k")
        n = data.draw(st.integers(two_periods(k), 3 * two_periods(k)), label="n")
        regions = region_decomposition(n, k).regions
        assert [region.formula for region in regions] == series_fit_formulas(n, k)

    def test_formulas_match_shift_and_add(self):
        for n, k in ((16, 2), (40, 3), (50, 4), (130, 5), (130, 6)):
            regions = region_decomposition(n, k).regions
            expected = shift_and_add_formulas(n, k)
            assert [region.formula.polys for region in regions] == expected

    @settings(max_examples=10)
    @given(st.data())
    def test_formulas_match_coefficients_property(self, data):
        k = data.draw(st.integers(1, 5), label="k")
        n = data.draw(st.integers(two_periods(k), 3 * two_periods(k)), label="n")
        true = q_binomial_box(n, k).coeffs
        for region in region_decomposition(n, k).regions:
            f = region.formula
            for m in range(region.valid_from, region.right + 1):
                assert f.evaluate(m) == true[m]
            assert f.evaluate(region.valid_from) == true[region.valid_from]
            if region.valid_from > 0:
                assert f.evaluate(region.valid_from - 1) != true[region.valid_from - 1]

    @settings(max_examples=15)
    @given(st.data())
    def test_formulas_reflect_property(self, data):
        k = data.draw(st.integers(1, 7), label="k")
        n = data.draw(st.integers(min_region_n(k), 10**20 + 3), label="n")
        ms = data.draw(st.lists(st.integers(-10**25, 10**25), max_size=20), label="ms")
        assert_formulas_reflect(n, k, ms)

    @pytest.mark.parametrize("n, k", [(35, 8), (44, 9), (10**20 + 3, 8), (10**20 + 3, 9)])
    def test_formulas_reflect(self, n, k):
        assert min_region_n(k) <= n
        assert_formulas_reflect(n, k, (n, n * k // 2, 10**25 + 1, -(10**25) - 7))


class TestQuasipolynomialType:
    def test_shift_matches_reindexed_evaluation(self):
        q = initial_quasipolynomial(3)
        shifted = q.arg_shifted(7)
        for m in range(7, 40):
            assert shifted.evaluate(m) == q.evaluate(m - 7)

    @settings(max_examples=50)
    @given(st.lists(st.integers(-2, 2), min_size=1, max_size=12), st.integers(1, 4))
    def test_least_period(self, col, repeats):
        least = quasi._least_period(col * repeats)
        assert len(col) % len(least) == 0 and least * (len(col) // len(least)) == tuple(col)
        assert all(col[d:] != col[:-d] for d in range(1, len(least)) if len(col) % d == 0)

    def test_demo_branches(self):
        f = demo_quasipolynomial()
        # built by _canonical, which keeps the columns as written: they are
        # already in lowest terms
        canonical = Quasipolynomial._canonical(f.period, f.cols, f.den)
        assert (canonical.cols, canonical.den) == (f.cols, f.den)
        assert (f.period, f.cols, f.den) == (2, ((0,), (20, -1), (0, 1)), 2)
        assert f.evaluate(6) == 60
        assert f.evaluate(7) == 21
        assert [f.evaluate(m) for m in range(5)] == [0, 0, 20, 3, 40]
