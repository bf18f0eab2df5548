"""Value semantics of the package's immutable types: fields cannot be
assigned, equal values compare and hash equal, repr names the fields, and
pickling round-trips.  The slots types store each value in one form, so
pickling and copying restore every slot as it was."""
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
        # the tables are in lowest terms, so equality compares them; repr
        # shows the pieces instead
        assert rebuilt._cdf == shape._cdf
        assert "_cdf" not in repr(rebuilt) and "_density" not in repr(rebuilt)
    assert limit_shape(3) != limit_shape(4)
    assert limit_shape(2) != PiecewisePolynomial(2, limit_shape(2).pieces[::-1])


def test_quasipolynomials_from_the_same_polys_are_equal():
    # __new__, the fit and region assembly all store in lowest terms
    # (Quasipolynomial._canonical), so rebuilding from polys stores the same
    # columns over the same denominator
    for k in range(1, 7):
        decomp = region_decomposition(2 * math.lcm(*range(1, k + 1)), k)
        for q in [initial_quasipolynomial(k)] + [g.formula for g in decomp.regions]:
            rebuilt = Quasipolynomial(q.period, q.polys)
            assert rebuilt == q and hash(rebuilt) == hash(q)
            assert (rebuilt.cols, rebuilt.den) == (q.cols, q.den)
            assert pickle.loads(pickle.dumps(q)) == q


@pytest.mark.parametrize("kind", ["Polynomial", "Quasipolynomial", "PiecewisePolynomial"])
def test_pickle_and_copy_keep_every_slot(kind):
    values = [build(kind)]
    if kind == "Quasipolynomial":
        values.append(initial_quasipolynomial(6))
    if kind == "PiecewisePolynomial":
        values.append(limit_shape(6))
    for value in values:
        slots = [getattr(value, name) for name in type(value).__slots__]
        for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert [getattr(clone, name) for name in type(value).__slots__] == slots


def test_pickles_of_the_field_form_still_load():
    # pickles written when __reduce__ gave (type, fields) call the constructor
    old = (b"\x80\x02cqshape.quasi\nQuasipolynomial\nq\x00K\x02cqshape.exactnum\nPolynomial\nq"
           b"\x01cfractions\nFraction\nq\x02K\x00K\x01\x86q\x03Rq\x04h\x02K\nK\x01\x86q\x05Rq"
           b"\x06\x86q\x07\x85q\x08Rq\th\x01h\x02K\x00K\x01\x86q\nRq\x0bh\x02J\xff\xff\xff\xffK"
           b"\x02\x86q\x0cRq\rh\x02K\x01K\x02\x86q\x0eRq\x0f\x87q\x10\x85q\x11Rq\x12\x86q\x13"
           b"\x86q\x14Rq\x15.")
    value = pickle.loads(old)
    assert value == demo_quasipolynomial()
    assert (value.cols, value.den) == (demo_quasipolynomial().cols, demo_quasipolynomial().den)
    for kind in ("Polynomial", "PiecewisePolynomial"):
        value = build(kind)
        assert type(value)(*(getattr(value, name) for name in type(value)._fields)) == value


@pytest.mark.parametrize("kind", ["Polynomial", "Quasipolynomial", "PiecewisePolynomial"])
def test_slots_classes_have_no_instance_dict(kind):
    value = build(kind)
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        delattr(value, type(value)._fields[0])
