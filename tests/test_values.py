"""Value semantics of the package's immutable types: fields cannot be
assigned, equal values compare and hash equal, repr names the fields, and
pickling round-trips."""
import copy
import math
import pickle
from fractions import Fraction

import pytest

from qshape.exactnum import Polynomial
from qshape.measure import convergence_table, measure_from_polynomial
from qshape.qcore import coefficient_report, q_binomial_box
from qshape.quasi import (
    Quasipolynomial, SignedTerm, demo_quasipolynomial, initial_quasipolynomial, region_decomposition,
)
from qshape.shape import PiecewisePolynomial, limit_shape
from qshape.svgplot import PlotSpec


def build(kind):
    """A fresh instance of each immutable type (built anew on every call)."""
    if kind == "Polynomial":
        return Polynomial((1, Fraction(1, 2), 0))
    if kind == "Quasipolynomial":
        return demo_quasipolynomial()
    if kind == "PiecewisePolynomial":
        return PiecewisePolynomial(2, tuple(limit_shape(2).pieces))
    if kind == "CoefficientReport":
        return coefficient_report(q_binomial_box(3, 2))
    if kind == "SignedTerm":
        return SignedTerm(-1, 2, 3, 1)
    if kind in ("Region", "RegionDecomposition"):
        decomp = region_decomposition(24, 4)
        return decomp.regions[1] if kind == "Region" else decomp
    if kind == "EmpiricalMeasure":
        return measure_from_polynomial(q_binomial_box(3, 2))
    if kind == "ConvergenceRow":
        return convergence_table(2, [4])[0]
    return PlotSpec((1, 2), 10, 20, "t", overlay=((0, 1), 2))


KINDS = ["Polynomial", "Quasipolynomial", "PiecewisePolynomial", "CoefficientReport",
         "SignedTerm", "Region", "RegionDecomposition", "EmpiricalMeasure", "ConvergenceRow",
         "PlotSpec"]


@pytest.mark.parametrize("kind", KINDS)
def test_fields_cannot_be_assigned(kind):
    value = build(kind)
    assert type(value).__name__ == kind
    field = type(value)._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.unknown_field = 1


@pytest.mark.parametrize("kind", KINDS)
def test_equal_values_compare_and_hash_equal(kind):
    a, b = build(kind), build(kind)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("kind", KINDS)
def test_pickle_and_copy_round_trip(kind):
    value = build(kind)
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert clone == value and type(clone) is type(value)


@pytest.mark.parametrize("kind", KINDS)
def test_repr_names_every_field(kind):
    value = build(kind)
    text = repr(value)
    assert text.startswith(f"{kind}(")
    assert all(f"{field}=" in text for field in type(value)._fields)


def test_polynomial_values():
    assert Polynomial((1, 2, 0, 0)) == Polynomial([1, 2])
    assert Polynomial((1, 2)) != Polynomial((1, 2, 3))
    assert Polynomial((1,)) != 1 and Polynomial((1,)) != (1,)
    assert repr(Polynomial((1, Fraction(1, 2)))) == "Polynomial(coeffs=(1, Fraction(1, 2)))"
    assert len({Polynomial((0, 1)), Polynomial([0, 1, 0]), Polynomial(())}) == 2


def test_piecewise_polynomials_from_the_same_pieces_are_equal():
    for k in range(1, 6):
        shape = limit_shape(k)
        rebuilt = PiecewisePolynomial(k, tuple(Polynomial(p.coeffs) for p in shape.pieces))
        assert rebuilt == shape and hash(rebuilt) == hash(shape)
        # the precomputed tables take no part in equality or repr
        assert rebuilt._cdf == shape._cdf
        assert "_cdf" not in repr(rebuilt) and "_density" not in repr(rebuilt)
    assert limit_shape(3) != limit_shape(4)
    assert limit_shape(2) != PiecewisePolynomial(2, limit_shape(2).pieces[::-1])


def test_quasipolynomials_from_the_same_polys_are_equal():
    # __new__ compresses the polys' columns to their least periods, as the
    # fit and region assembly do, so it rebuilds the same value
    for k in range(1, 7):
        decomp = region_decomposition(2 * math.lcm(*range(1, k + 1)), k)
        for q in [initial_quasipolynomial(k)] + [g.formula for g in decomp.regions]:
            rebuilt = Quasipolynomial(q.period, q.polys)
            assert rebuilt == q and hash(rebuilt) == hash(q)
            assert [len(col) for col in rebuilt.cols] == [len(col) for col in q.cols]
            assert pickle.loads(pickle.dumps(q)) == q


@pytest.mark.parametrize("kind", ["Polynomial", "Quasipolynomial", "PiecewisePolynomial"])
def test_slots_classes_have_no_instance_dict(kind):
    value = build(kind)
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        delattr(value, type(value)._fields[0])
