"""Property tests for the elimination routines, which all read one
``SpanBuilder``: rref, rank, kernel_basis, solve, inverse and span
coordinates against a plain nested-loop Gauss-Jordan over Fraction."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilforge.errors import SingularMatrixError
from nilforge.exactlin import (
    RationalMatrix,
    SpanBuilder,
    inverse,
    kernel_basis,
    matrix_to_sparse,
    rank,
    rref,
    solve,
)

PROPS = settings(max_examples=60, deadline=None, derandomize=True)
ZERO = Fraction(0)

rationals = st.builds(
    Fraction,
    st.integers(-9, 9),
    st.sampled_from([1, 1, 2, 3, 4, 6]),
)


def _rows(rows, cols):
    return st.lists(
        st.lists(rationals, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


@st.composite
def matrices(draw, square=False):
    """A rows x cols product of random rows x k and k x cols factors: rank
    deficient whenever k < min(rows, cols), zero for k = 0."""
    rows = draw(st.integers(0, 5))
    cols = rows if square else draw(st.integers(0, 5))
    k = draw(st.integers(0, 5))
    left, right = draw(_rows(rows, k)), draw(_rows(k, cols))
    return RationalMatrix(
        [
            [sum((left[i][t] * right[t][j] for t in range(k)), ZERO) for j in range(cols)]
            for i in range(rows)
        ]
    )


def _ref_rref(rows, ncols):
    a = [list(r) for r in rows]
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        piv = next((r for r in range(top, len(a)) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[top], a[piv] = a[piv], a[top]
        d = a[top][col]
        a[top] = [x / d for x in a[top]]
        for r in range(len(a)):
            if r != top and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[top])]
        pivots.append(col)
    return a, pivots


def _rows_of(m):
    return [list(m.row(i)) for i in range(m.rows)]


def _ref_apply(rows, v):
    return [sum((x * y for x, y in zip(r, v)), ZERO) for r in rows]


def _ref_inverse(m):
    n = m.rows
    aug = [r + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(_rows_of(m))]
    red, pivots = _ref_rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return [r[n:] for r in red]


@PROPS
@given(matrices())
def test_rref_and_rank_match_reference(m):
    red, pivots = rref(m)
    ref, ref_pivots = _ref_rref(_rows_of(m), m.cols)
    assert pivots == tuple(ref_pivots)
    assert red == RationalMatrix(ref)
    assert (red.rows, red.cols) == (m.rows, m.cols)
    assert rank(m) == len(ref_pivots)


@PROPS
@given(matrices())
def test_kernel_basis_matches_reference(m):
    ref, pivots = _ref_rref(_rows_of(m), m.cols)
    expected = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = [ZERO] * m.cols
        v[fc] = Fraction(1)
        for prow, pcol in enumerate(pivots):
            v[pcol] = -ref[prow][fc]
        expected.append(tuple(v))
    basis = kernel_basis(m)
    assert basis == expected
    assert all(x == 0 for v in basis for x in _ref_apply(_rows_of(m), v))


@PROPS
@given(matrices(square=True), st.lists(rationals, min_size=5, max_size=5))
def test_solve_and_inverse_match_reference(a, b):
    b = b[: a.rows]
    ref_inv = _ref_inverse(a)
    if ref_inv is None:
        with pytest.raises(SingularMatrixError):
            inverse(a)
        with pytest.raises(SingularMatrixError):
            solve(a, b)
        return
    assert inverse(a) == RationalMatrix(ref_inv)
    assert list(solve(a, b)) == _ref_apply(ref_inv, b)


@PROPS
@given(st.data())
def test_span_coords_match_reference(data):
    n = data.draw(st.integers(0, 3))
    square = st.builds(RationalMatrix, _rows(n, n))
    mats = data.draw(st.lists(square, max_size=6))
    probe = data.draw(square)
    span, kept = SpanBuilder(), []
    for m in mats:
        ref_rank = len(_ref_rref([list(k.entries()) for k in kept + [m]], n * n)[1])
        # a matrix, its row-major coordinates and its sparse dict are one vector
        forms = (m, list(m.entries()), matrix_to_sparse(m))
        enlarged = span.add(forms[len(kept) % 3])
        assert enlarged == (ref_rank > len(kept))
        if enlarged:
            kept.append(m)
    assert span.dim == len(kept)
    for m in mats + [probe]:
        coords = [span.coords(f) for f in (m, list(m.entries()), matrix_to_sparse(m))]
        assert coords[0] == coords[1] == coords[2]
        inside = len(_ref_rref([list(k.entries()) for k in kept + [m]], n * n)[1]) == len(kept)
        if not inside:
            assert coords[0] is None and not span.contains(m)
            continue
        assert span.contains(m)
        rebuilt = [
            sum((coords[0].get(i, ZERO) * k.entry(r, c) for i, k in enumerate(kept)), ZERO)
            for r in range(n)
            for c in range(n)
        ]
        assert rebuilt == list(m.entries())


def test_empty_and_singular_shapes():
    empty = RationalMatrix([])
    three_by_0 = RationalMatrix([[], [], []])
    assert rref(empty) == (empty, ())
    assert rref(three_by_0) == (three_by_0, ())
    assert rank(three_by_0) == 0 and kernel_basis(three_by_0) == []
    zero = RationalMatrix.zeros(2, 3)
    assert rref(zero) == (zero, ())
    assert kernel_basis(zero) == [
        tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3)
    ]
    assert inverse(empty) == empty and solve(empty, []) == ()
    singular = RationalMatrix([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError):
        solve(singular, [1, 2])  # b lies in the column space; A is still singular
    span = SpanBuilder()
    assert not span.add({}) and not span.add(zero) and not span.add([0, 0])
    assert span.coords([0, 0, 0]) == {} and span.coords([1]) is None


def test_span_drops_explicit_zero_entries():
    # a zero entry is not a pivot, and the zero vector lies in every span
    span = SpanBuilder()
    assert span.add({0: Fraction(0), 1: Fraction(1)})
    assert span.coords({1: 2, 4: 0}) == {0: Fraction(2)}
    assert not span.add({0: 0, 1: Fraction(-3)}) and span.dim == 1
    line = SpanBuilder([[1, 0]])
    assert line.coords({0: 0}) == {} and line.contains({3: 0})
    assert line.coords([0, "0/5"]) == {} and line.contains({0: "0", 1: 0})
