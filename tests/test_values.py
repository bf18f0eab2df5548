"""Value semantics of the package's immutable types: fields cannot be
assigned, equal values compare and hash equal, repr names the fields, and
pickling round-trips.  The slots types store each value in one form, so
pickling and copying restore every slot as it was."""
import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshape.errors import InvalidArguments
from qshape.exactnum import Polynomial
from qshape.measure import convergence_table, measure_from_polynomial
from qshape.qcore import coefficient_report, q_binomial_box
from qshape.quasi import (
    Quasipolynomial, SignedTerm, demo_quasipolynomial, initial_quasipolynomial, region_decomposition,
)
from qshape.shape import PiecewisePolynomial, limit_shape


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
    return convergence_table(2, [4])[0]


KINDS = ["Polynomial", "Quasipolynomial", "PiecewisePolynomial", "CoefficientReport",
         "SignedTerm", "Region", "RegionDecomposition", "EmpiricalMeasure", "ConvergenceRow"]


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
        # the density table is in lowest terms, so equality compares it and
        # the CDF table built from it agrees; repr shows the pieces instead
        assert rebuilt._cdf() == shape._cdf()
        assert "_cdf" not in repr(rebuilt) and "_density" not in repr(rebuilt)
    assert limit_shape(3) != limit_shape(4)
    with pytest.raises(InvalidArguments):  # the constructor takes L_k's pieces only
        PiecewisePolynomial(2, limit_shape(2).pieces[::-1])


def test_piecewise_polynomial_pickled_with_a_cdf_slot_loads():
    # protocol 2 pickle of limit_shape(3) from when the CDF table was a third
    # slot: _make zips the stored values onto (k, _density) and drops the rest
    old = (
        b"\x80\x02c__builtin__\ngetattr\nq\x00cqshape.shape\nPiecewisePolynomial\nq\x01"
        b"X\x05\x00\x00\x00_makeq\x02\x86q\x03Rq\x04K\x03K\x00K\x00K\x1b\x87q\x05"
        b"J\xf7\xff\xff\xffK6J\xca\xff\xff\xff\x87q\x06K\x1bJ\xca\xff\xff\xffK\x1b"
        b"\x87q\x07\x87q\x08K\x02\x86q\t(K\x00K\x00K\x00K\ttq\n(K\x01J\xf7\xff\xff"
        b"\xffK\x1bJ\xee\xff\xff\xfftq\x0b(J\xf9\xff\xff\xffK\x1bJ\xe5\xff\xff\xffK\t"
        b"tq\x0c\x87q\rK\x02\x86q\x0e\x87q\x0fRq\x10."
    )
    shape = pickle.loads(old)
    assert shape == limit_shape(3) and hash(shape) == hash(limit_shape(3))


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


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def tables(draw, kind):
    """(size, cols, zero, den): a random exact table of the given type as
    integer columns over den, their lengths dividing the period or all k for
    k rows, and an all-zero column that fits the table."""
    size = draw(st.integers(1, 6))
    if kind == "Quasipolynomial":
        lengths = draw(st.lists(st.sampled_from(divisors(size)), min_size=1, max_size=4))
        zero = draw(st.sampled_from(divisors(size)))
    else:
        lengths, zero = [size] * draw(st.integers(1, 4)), size
    cols = [tuple(draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))) for n in lengths]
    return size, cols, (0,) * zero, draw(st.integers(1, 60))


def canonical(kind, size, cols, den):
    """kind._canonical of the table given as columns."""
    if kind == "Quasipolynomial":
        return Quasipolynomial._canonical(size, cols, den)
    return PiecewisePolynomial._canonical(size, tuple(zip(*cols)), den)


@pytest.mark.parametrize("kind", ["Quasipolynomial", "PiecewisePolynomial"])
@settings(max_examples=200)
@given(data=st.data())
def test_canonical_form_drops_zero_columns_and_common_factors(kind, data):
    # exactnum._lowest_terms is the one canonical form: the table scaled by g
    # with all-zero top columns appended stores exactly what the bare table
    # does, and a stored table is already canonical
    size, cols, zero, den = data.draw(tables(kind))
    g, extra = data.draw(st.integers(1, 10 ** 6)), data.draw(st.integers(0, 3))
    bare = canonical(kind, size, cols, den)
    scaled = canonical(kind, size, [tuple(c * g for c in col) for col in cols] + [zero] * extra,
                       den * g)
    if kind == "Quasipolynomial":
        again = Quasipolynomial._canonical(size, bare.cols, bare.den)
    else:
        again = PiecewisePolynomial._canonical(size, *bare._density)
    for value in (scaled, again):
        assert value._values() == bare._values() and hash(value) == hash(bare)


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
