"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Everything is exact unless a tolerance is stated next to the assert.
"""
import contextlib
import math
import random
import re
from fractions import Fraction

from qshape.exactnum import Polynomial
from qshape.measure import convergence_table, ks_distance, measure_from_polynomial
from qshape.qcore import (
    q_binomial,
    q_binomial_box,
    q_binomial_partition_dp,
    q_binomial_pascal,
    q_factorial,
)
from qshape.quasi import (
    SignedTerm,
    Quasipolynomial,
    coefficient_via_recursion,
    initial_quasipolynomial,
    numerator_expansion,
    region_decomposition,
)
from qshape.shape import cube_slice_volume, limit_shape
from qshape.cli import main as cli_main

from oracles import derivative, mul, scale_arg
from test_measure import ks_grid_scan


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except Exception:
        print(f"criterion {number:2d} FAIL: {title}")
        raise
    print(f"criterion {number:2d} PASS: {title}")


def test_criterion_01_oracle_equivalence():
    with criterion(1, "product engine equals quotient, Pascal and partition DP for k<=8, n<=30; q=1 gives C(n+k,k)"):
        for k in range(0, 9):
            for n in range(0, 31):
                engine = q_binomial_box(n, k)
                assert engine == q_factorial(n + k).exact_div(mul(q_factorial(n), q_factorial(k)))
                assert engine == q_binomial_pascal(n + k, k)
                assert engine == q_binomial_partition_dp(n, k)
                assert engine.evaluate(1) == math.comb(n + k, k)


def test_criterion_02_paper_table_reproduction():
    with criterion(2, "initial_quasipolynomial(4) equals the printed 12-row table exactly"):
        half, q3 = Fraction(1, 2), Fraction(1, 144)
        q2, lin_odd = Fraction(5, 48), Fraction(7, 16)
        constants = [
            Fraction(1), Fraction(65, 144), Fraction(19, 36), Fraction(9, 16),
            Fraction(8, 9), Fraction(49, 144), Fraction(3, 4), Fraction(65, 144),
            Fraction(7, 9), Fraction(9, 16), Fraction(23, 36), Fraction(49, 144),
        ]
        expected = Quasipolynomial(12, tuple(
            Polynomial((constants[r], lin_odd if r % 2 else half, q2, q3))
            for r in range(12)
        ))
        assert initial_quasipolynomial(4) == expected


def test_criterion_03_limit_shape_l3():
    with criterion(3, "limit_shape(3) reproduces the printed three pieces exactly"):
        shape = limit_shape(3)
        assert shape.pieces == (
            Polynomial((0, 0, Fraction(27, 2))),
            Polynomial((Fraction(-9, 2), 27, -27)),
            Polynomial((Fraction(27, 2), -27, Fraction(27, 2))),
        )


def test_criterion_04_numerator_expansion():
    with criterion(4, "numerator_expansion(4) is the printed 15-term expansion"):
        expected = (
            (1, 1, 0, 0),
            (-1, 1, 1, 1), (-1, 1, 2, 1), (-1, 1, 3, 1), (-1, 1, 4, 1),
            (1, 1, 3, 2), (1, 1, 4, 2), (1, 2, 5, 2), (1, 1, 6, 2), (1, 1, 7, 2),
            (-1, 1, 6, 3), (-1, 1, 7, 3), (-1, 1, 8, 3), (-1, 1, 9, 3),
            (1, 1, 10, 4),
        )
        assert numerator_expansion(4) == tuple(SignedTerm(*t) for t in expected)
        assert len(numerator_expansion(4)) == 15


def test_criterion_05_recursion_exactness():
    with criterion(5, "coefficient_via_recursion exact for k<=6, 2k*lcm(1..k) <= n <= 60"):
        for k in range(1, 7):
            low = 2 * k * math.lcm(*range(1, k + 1))
            for n in range(low, 61):
                truth = q_binomial_box(n, k)
                for m in range(n * k + 1):
                    assert coefficient_via_recursion(n, k, m) == truth.coefficient(m)


def test_criterion_06_transition_zone_identity():
    with criterion(6, "for k=4, n>=24: [q^(n+2)] = F(n+2) - F(1) - F(0)"):
        base = initial_quasipolynomial(4)
        for n in (24, 25, 30, 36, 50, 61):
            expected = base.evaluate(n + 2) - base.evaluate(1) - base.evaluate(0)
            assert q_binomial_box(n, 4).coefficient(n + 2) == expected
            assert coefficient_via_recursion(n, 4, n + 2) == expected


def test_criterion_07_structural_claims():
    with criterion(7, "region formulas: period | lcm(1..k), degree k-1, constant top "
                      "coefficients; zone width independent of n"):
        cases = {1: (2, 9), 2: (4, 11), 3: (12, 19), 4: (24, 31), 5: (120, 127), 6: (120, 127)}
        for k, n_pair in cases.items():
            lcm = math.lcm(*range(1, k + 1))
            cut = k // 2 - 1
            widths = []
            for n in n_pair:
                decomp = region_decomposition(n, k)
                for region in decomp.regions:
                    formula = region.formula
                    assert lcm % formula.period == 0
                    assert formula.degree == k - 1
                    tops = {
                        tuple(poly.coefficient(d) for d in range(cut + 1, k))
                        for poly in formula.polys
                    }
                    assert len(tops) == 1
                widths.append(sum(b - a + 1 for a, b in decomp.transition_zones))
            assert widths[0] == widths[1]


def test_criterion_08_limit_shape_properties():
    with criterion(8, "for k<=10: integral 1, mirror symmetry, C^(k-2) breakpoints, all exact"):
        for k in range(1, 11):
            shape = limit_shape(k)
            assert shape.cdf(1) == 1
            for i, piece in enumerate(shape.pieces):
                mirrored = scale_arg(shape.pieces[k - 1 - i].taylor_shift(1), -1)
                assert piece == mirrored
                assert piece.degree == k - 1
            for i in range(k - 1):
                x = Fraction(i + 1, k)
                left, right = shape.pieces[i], shape.pieces[i + 1]
                for _ in range(k - 1):  # value plus k-2 derivatives
                    assert left.evaluate(x) == right.evaluate(x)
                    left, right = derivative(left), derivative(right)


# KS distances frozen after one computation with ks_distance, cross-checked
# against the grid-scan oracle (agreement observed ~1e-15, well inside 1e-9).
KS_REGRESSION = {
    2: (0.062424242424242424, 0.03212121212121212, 0.016392276422764227, 0.0082621951219512199),
    3: (0.0675990675990676, 0.03580935911914173, 0.018534124058017989, 0.0094303278493377309),
    4: (0.070973226773226775, 0.038252324487107095, 0.020022692844266953, 0.01024391545669984),
    5: (0.07596955311355312, 0.041706495106342931, 0.022012137062670918, 0.011329992345265289),
}


def test_criterion_09_convergence():
    with criterion(9, "KS to L_k strictly decreasing over n in {10,20,40,80}; "
                      "values match frozen constants to 1e-9"):
        for k, frozen in KS_REGRESSION.items():
            rows = convergence_table(k, [10, 20, 40, 80])
            values = [row.ks for row in rows]
            assert all(a > b for a, b in zip(values, values[1:]))
            for got, expected in zip(values, frozen):
                assert abs(got - expected) < 1e-9
        # grid-scan oracle cross-check on a sample of the frozen values
        for k, n in ((2, 10), (3, 40), (5, 80)):
            em = measure_from_polynomial(q_binomial_box(n, k))
            shape = limit_shape(k)
            assert abs(ks_distance(em, shape) - ks_grid_scan(em, shape)) < 1e-9


def test_criterion_10_geometry_cross_check():
    with criterion(10, "square diagonal exact to 1e-12; cube slices match 1e6-sample MC to 1e-2"):
        assert abs(cube_slice_volume(2, 1) - math.sqrt(2)) < 1e-12
        rng = random.Random(20260809)
        samples = 10 ** 6
        delta = 0.1
        targets = (Fraction(3, 4), Fraction(3, 2), Fraction(9, 4))
        floats = [float(t) for t in targets]
        counts = [0] * len(targets)
        for _ in range(samples):
            s = rng.random() + rng.random() + rng.random()
            for i, t in enumerate(floats):
                if abs(s - t) <= delta / 2:
                    counts[i] += 1
        for i, t in enumerate(targets):
            estimate = math.sqrt(3) * counts[i] / (samples * delta)
            assert abs(estimate - cube_slice_volume(3, t)) < 1e-2


def test_criterion_11_finite_field_counts():
    with criterion(11, "q=2 evaluations equal brute-force subspace counts over F_2"):
        from test_qcore import count_subspaces_gf2

        assert q_binomial(4, 2).evaluate(2) == 35
        assert q_binomial(5, 2).evaluate(2) == 155
        assert count_subspaces_gf2(4, 2) == 35
        assert count_subspaces_gf2(5, 2) == 155


def test_criterion_12_figure_reproduction(tmp_path):
    with criterion(12, "plots byte-identical across runs; (50,4) shows 4 colored bands "
                       "split by black zones"):
        for n, k in ((5, 3), (20, 3), (50, 3)):
            first = tmp_path / f"{n}_{k}_a.svg"
            second = tmp_path / f"{n}_{k}_b.svg"
            for target in (first, second):
                assert cli_main(["plot", "--n", str(n), "--k", str(k),
                                 "--out", str(target)]) == 0
            assert first.read_bytes() == second.read_bytes()
        first = tmp_path / "50_4_a.svg"
        second = tmp_path / "50_4_b.svg"
        for target in (first, second):
            assert cli_main(["plot", "--n", "50", "--k", "4", "--color-regions",
                             "--out", str(target)]) == 0
        assert first.read_bytes() == second.read_bytes()
        fills = re.findall(r'<rect class="bar"[^>]*fill="([^"]+)"', first.read_text())
        runs = [fills[0]]
        for fill in fills[1:]:
            if fill != runs[-1]:
                runs.append(fill)
        colored = [c for c in runs if c != "black"]
        assert len(colored) == 4 and len(set(colored)) == 4
        assert runs == ["red", "black", "yellow", "black", "green", "black", "blue"]
