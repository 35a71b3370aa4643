"""Property tests for the integer-form product kernel behind ``_matmul``,
``commutator`` and ``trace_pairing``, and for ``lin_comb``, against plain
nested-loop Fraction references."""

from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilforge.errors import DimensionMismatchError
from nilforge.exactlin import (
    _INT64_BOUND,
    MatrixSubspace,
    RationalMatrix,
    _int_form,
    _int_product,
    commutator,
    lin_comb,
    trace_gram,
    trace_pairing,
)

PROPS = settings(max_examples=60, deadline=None, derandomize=True)

# mixed denominators, so the common-denominator scaling is exercised
rationals = st.builds(
    Fraction,
    st.integers(-40, 40),
    st.sampled_from([1, 1, 2, 3, 4, 6, 7, 9]),
)


def _matrix(rows, cols, elements=rationals):
    return st.lists(
        st.lists(elements, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(RationalMatrix)


def _ref_matmul(a, b):
    return RationalMatrix(
        [
            [sum((a.entry(i, t) * b.entry(t, j) for t in range(a.cols)), Fraction(0))
             for j in range(b.cols)]
            for i in range(a.rows)
        ]
    )


def _ref_trace(x, y):
    return sum(
        (x.entry(i, j) * y.entry(j, i) for i in range(x.rows) for j in range(x.cols)),
        Fraction(0),
    )


@st.composite
def product_pairs(draw, elements=rationals):
    r, k, c = (draw(st.integers(1, 5)) for _ in range(3))
    return draw(_matrix(r, k, elements)), draw(_matrix(k, c, elements))


@st.composite
def square_pairs(draw, elements=rationals):
    n = draw(st.integers(1, 5))
    return draw(_matrix(n, n, elements)), draw(_matrix(n, n, elements))


@PROPS
@given(product_pairs())
def test_matmul_matches_reference(pair):
    a, b = pair
    assert a * b == _ref_matmul(a, b)
    # small mixed-denominator operands take the int64 kernel
    assert _int_product(a, b, False) == _ref_matmul(a, b)


@PROPS
@given(square_pairs())
def test_commutator_matches_reference(pair):
    a, b = pair
    ref = _ref_matmul(a, b) - _ref_matmul(b, a)
    assert commutator(a, b) == ref
    assert _int_product(a, b, True) == ref


@PROPS
@given(st.data())
def test_trace_pairing_matches_reference(data):
    r, c = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    xs = data.draw(st.lists(_matrix(r, c), min_size=1, max_size=4))
    ys = data.draw(st.lists(_matrix(c, r), min_size=1, max_size=4))
    assert trace_pairing(xs, ys) == RationalMatrix(
        [[_ref_trace(x, y) for y in ys] for x in xs]
    )


@PROPS
@given(product_pairs())
def test_product_int_form_is_lowest_terms(pair):
    a, b = pair
    prod = a * b
    arr, d = _int_form(prod)
    assert d == lcm(*{x.denominator for x in prod.entries()})
    assert [[Fraction(x, d) for x in row] for row in arr.tolist()] == [
        list(prod.row(i)) for i in range(prod.rows)
    ]
    assert arr.dtype == np.int64


@PROPS
@given(st.data())
def test_lin_comb_matches_reference(data):
    n = data.draw(st.integers(0, 4))
    mats = data.draw(st.lists(_matrix(n, n), max_size=5))
    coeffs = data.draw(
        st.lists(rationals | st.just(Fraction(0)), min_size=len(mats), max_size=len(mats))
    )
    ref = [
        [
            sum((c * m.entry(i, j) for c, m in zip(coeffs, mats)), Fraction(0))
            for j in range(n)
        ]
        for i in range(n)
    ]
    assert lin_comb(coeffs, mats, n) == RationalMatrix(ref)
    assert lin_comb([0] * len(mats), mats, n) == RationalMatrix.zeros(n, n)


def test_lin_comb_empty_and_shape_check():
    assert lin_comb([], [], 3) == RationalMatrix.zeros(3, 3)
    assert lin_comb([], [], 0) == RationalMatrix([])
    with pytest.raises(DimensionMismatchError):
        lin_comb([1], [RationalMatrix.identity(2)], 3)


def test_empty_shapes():
    # a matrix with no rows is 0 x 0 here; k x 0 has k empty rows
    empty = RationalMatrix([])
    k_by_0 = RationalMatrix([[], [], []])
    one_by_0 = RationalMatrix([[]])
    three_by_1 = RationalMatrix([[Fraction(1, 2)], [2], [-3]])
    assert (k_by_0.rows, k_by_0.cols) == (3, 0)
    assert k_by_0 * empty == k_by_0 == _ref_matmul(k_by_0, empty)
    assert three_by_1 * one_by_0 == k_by_0
    assert empty * empty == empty
    assert commutator(empty, empty) == empty
    assert trace_pairing([], []) == empty
    assert trace_pairing([three_by_1], []) == one_by_0
    assert trace_pairing([empty, empty], [empty]) == RationalMatrix.zeros(2, 1)
    assert trace_gram(MatrixSubspace(3, [])) == empty
    with pytest.raises(DimensionMismatchError):
        trace_pairing([three_by_1], [three_by_1])


def _takes_python_ints(a, b, factor):
    # the int64 bound fails, so the kernel multiplies Python ints
    (na, _), (nb, _) = _int_form(a), _int_form(b)
    bound = max(abs(int(x)) for x in na.flat) * max(abs(int(x)) for x in nb.flat)
    return factor * bound * a.cols >= _INT64_BOUND


def _has_canonical_dtype(m):
    # Python ints exactly when an entry needs them
    n, _ = _int_form(m)
    wide = max((abs(int(x)) for x in n.flat), default=0) >= _INT64_BOUND
    return n.dtype == (object if wide else np.int64)


big = st.builds(
    Fraction,
    st.integers(2**40, 2**40 + 1000) | st.integers(-(2**40) - 1000, -(2**40)),
    st.sampled_from([1, 3, 5]),
)


@PROPS
@given(product_pairs(big))
def test_overflow_guard_falls_back_exactly(pair):
    a, b = pair
    assert _takes_python_ints(a, b, 1)
    assert _has_canonical_dtype(a * b)
    assert a * b == _ref_matmul(a, b)


@PROPS
@given(square_pairs(big))
def test_overflow_guard_commutator_exact(pair):
    a, b = pair
    assert _takes_python_ints(a, b, 2)
    assert _has_canonical_dtype(commutator(a, b))
    assert commutator(a, b) == _ref_matmul(a, b) - _ref_matmul(b, a)


def test_numerators_beyond_int64_fall_back():
    huge = RationalMatrix([[2**70, Fraction(1, 3)], [0, -(2**65)]])
    assert _int_form(huge)[0].dtype == object
    assert _int_form(huge * huge)[0].dtype == object
    assert huge * huge == _ref_matmul(huge, huge)
    assert trace_pairing([huge], [huge]).entry(0, 0) == _ref_trace(huge, huge)


@PROPS
@given(_matrix(3, 3), st.integers(63, 80))
def test_equal_matrices_hash_equal_whatever_the_path(m, e):
    half = RationalMatrix([[Fraction(2, 4)]])
    assert half == RationalMatrix([["1/2"]]) == RationalMatrix([[1]]).scale(Fraction(1, 2))
    assert hash(half) == hash(RationalMatrix([["1/2"]]))
    wide = m.scale(2**e)  # Python-int numerators unless m is zero
    assert not any(m.entries()) or _int_form(wide)[0].dtype == object
    paths = [
        wide.scale(Fraction(1, 2**e)),  # back from Python ints
        RationalMatrix.identity(3).scale(Fraction(1, 2**e)) * wide,  # a product
        m.transpose().transpose(),  # a strided view
        lin_comb([3, -2], [m, m], 3),
        m + RationalMatrix.zeros(m.rows, m.cols),
        RationalMatrix.from_json(m.to_json()),
        RationalMatrix([[str(x) for x in m.row(i)] for i in range(m.rows)]),
    ]
    for other in paths:
        assert other == m and hash(other) == hash(m)
        assert _int_form(other)[0].dtype == np.int64
        assert _int_form(other)[1] == _int_form(m)[1]


def _kinds(*mats):
    return {_int_form(m)[0].dtype.kind for m in mats}


def test_no_float_dtype_anywhere():
    half = Fraction(1, 2)
    a = RationalMatrix([[1, half], [-3, Fraction(2, 3)]])
    huge = RationalMatrix([[2**70, 1], [0, -(2**65)]])
    results = [
        RationalMatrix([]),
        RationalMatrix([[], [], []]),
        RationalMatrix.zeros(0, 0),
        RationalMatrix.zeros(2, 3),
        RationalMatrix.identity(0),
        RationalMatrix.identity(3),
        RationalMatrix.diag([]),
        RationalMatrix.diag([half, 2**70]),
        RationalMatrix.from_json({"entries": []}),
        RationalMatrix.from_json(a.to_json()),
        a * a,
        huge * huge,
        a * RationalMatrix([[], []]),
        RationalMatrix([[], [], []]) * RationalMatrix([]),
        commutator(a, huge),
        commutator(RationalMatrix([]), RationalMatrix([])),
        a + huge,
        a - a,
        -a,
        a.scale(half),
        huge.scale(0),
        a.transpose(),
        lin_comb([half, 2**70], [a, huge], 2),
        lin_comb([], [], 0),
        lin_comb([], [], 2),
        trace_pairing([a, huge], [a]),
        trace_pairing([], []),
        trace_pairing([RationalMatrix([])], [RationalMatrix([])]),
        trace_gram(MatrixSubspace(2, [a, huge])),
    ]
    assert _kinds(*results) <= {"i", "O"}
    assert _kinds(huge, huge * huge) == {"O"}
    assert _kinds(a - a, huge.scale(0), RationalMatrix([])) == {"i"}
