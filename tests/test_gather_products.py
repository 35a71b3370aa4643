"""Property tests for the gather path of the product kernel.

A square operand of size at least 16 with exactly one nonzero in every row
and every column (a signed or scaled permutation) is multiplied by
gathering rows (left operand) or columns (right operand) of the other
operand.  Every case is checked for ``*`` and ``commutator`` against a
nested-loop Fraction reference, and near-misses must keep the dense
product."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from nilforge import exactlin
from nilforge.clifford import CliffordSignature, build_module, verify_module
from nilforge.exactlin import _INT64_BOUND, RationalMatrix, _int_form, _monomial, commutator

# each example multiplies up to 40 x 40 matrices in the reference, and
# shrinking a failing one would take minutes: a failure is reported as drawn
PROPS = settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)

SIZES = st.integers(16, 40)
SIGNS = st.sampled_from([1, -1])
FRACTIONS = st.builds(
    lambda k, sign, d: Fraction(sign * k, d),
    st.integers(1, 40),
    SIGNS,
    st.sampled_from([1, 2, 3, 4, 6, 7, 9]),
)
HUGE = st.builds(lambda k, sign: sign * (2**62 + k), st.integers(0, 2**20), SIGNS)


def _ref_product(a, b):
    """AB by nested loops over Fractions, skipping zero entries."""
    rows = [{t: x for t, x in enumerate(a.row(i)) if x} for i in range(a.rows)]
    cols = [{t: y for t, y in enumerate(b.column(j)) if y} for j in range(b.cols)]
    return RationalMatrix(
        [[sum((x * c[t] for t, x in r.items() if t in c), Fraction(0)) for c in cols] for r in rows]
    )


def _check(a, b):
    """a * b and commutator(a, b) against the reference, in canonical form."""
    ab, ba = _ref_product(a, b), _ref_product(b, a)
    for got, want in ((a * b, ab), (commutator(a, b), ab - ba)):
        assert got == want
        n, _ = _int_form(got)
        wide = max((abs(int(x)) for x in n.flat), default=0) >= _INT64_BOUND
        assert n.dtype == (object if wide else np.int64)


@st.composite
def monomials(draw, n, values=SIGNS):
    """An n x n matrix with value v_i at (i, perm(i))."""
    perm = draw(st.permutations(range(n)))
    vals = draw(st.lists(values, min_size=n, max_size=n))
    rows = [[0] * n for _ in range(n)]
    for i, (j, v) in enumerate(zip(perm, vals)):
        rows[i][j] = v
    return RationalMatrix(rows)


@st.composite
def dense(draw, n, dens=(1,), top=9):
    rng = draw(st.randoms(use_true_random=False))
    return RationalMatrix(
        [[Fraction(rng.randint(-top, top), rng.choice(dens)) for _ in range(n)] for _ in range(n)]
    )


@PROPS
@given(st.data())
def test_signed_permutation_times_dense(data):
    n = data.draw(SIZES)
    p, m = data.draw(monomials(n)), data.draw(dense(n))
    assert _monomial(p) is not None and _monomial(m) is None
    _check(p, m)


@PROPS
@given(st.data())
def test_dense_times_signed_permutation(data):
    n = data.draw(SIZES)
    m, p = data.draw(dense(n)), data.draw(monomials(n))
    assert _monomial(m) is None and _monomial(p) is not None
    _check(m, p)


@PROPS
@given(st.data())
def test_signed_permutation_times_signed_permutation(data):
    n = data.draw(SIZES)
    p1, p2 = data.draw(monomials(n)), data.draw(monomials(n))
    _check(p1, p2)
    assert _monomial(p1 * p2) is not None  # the group is closed


@PROPS
@given(st.data())
def test_fractional_denominators(data):
    n = data.draw(SIZES)
    p = data.draw(monomials(n, FRACTIONS))
    m = data.draw(dense(n, dens=(1, 2, 3, 5)))
    assert _monomial(p) is not None
    _check(p, m)
    _check(m, p)


@PROPS
@given(st.data())
def test_python_int_numerators(data):
    n = data.draw(SIZES)
    p = data.draw(monomials(n, HUGE))
    assert _int_form(p)[0].dtype == object and _monomial(p) is not None
    _check(p, data.draw(dense(n)))
    # huge dense entries against a signed permutation
    _check(data.draw(dense(n)).scale(2**62), data.draw(monomials(n)))


@PROPS
@given(st.data())
def test_one_term_per_entry_keeps_int64(data):
    # 2**31 * 2**30 * 2 is below the bound for a gather, where the dense
    # guard would have counted n terms per entry
    n = data.draw(SIZES)
    p = data.draw(monomials(n, st.sampled_from([2**31, -(2**31)])))
    m = data.draw(dense(n, top=2**30))
    _check(p, m)
    assert _int_form(p * m)[0].dtype == _int_form(commutator(m, p))[0].dtype == np.int64


def _near_miss(n, perm, kind):
    rows = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = 1 + i % 3
    if kind == "repeated column":
        rows[1] = list(rows[0])  # one nonzero per row, two in one column
    elif kind == "zero row":
        rows[0] = [0] * n
    else:  # a row with two nonzeros
        rows[0][perm[1]] = -1
    return RationalMatrix(rows)


@PROPS
@given(st.data())
def test_near_misses_take_the_dense_product(data):
    n = data.draw(SIZES)
    perm = data.draw(st.permutations(range(n)))
    kind = data.draw(st.sampled_from(["repeated column", "zero row", "two nonzeros"]))
    a, m = _near_miss(n, perm, kind), data.draw(dense(n))
    assert _monomial(a) is None
    _check(a, m)
    _check(m, a)


@pytest.mark.parametrize("n", [16, 40])
def test_dense_products_count_every_term(n):
    # each entry of a a is n terms of 2**58, at least 2**62: unlike a gather,
    # the dense product's guard must count all n terms
    a = RationalMatrix([[2**29] * n for _ in range(n)])
    _check(a, a)
    assert _int_form(a * a)[0].dtype == object


def test_small_operands_are_not_checked():
    p = RationalMatrix.identity(15)
    assert _monomial(p) is None and _monomial(RationalMatrix.identity(16)) is not None
    assert _monomial(RationalMatrix([[1] * 16])) is None  # not square


def test_module_checks_make_no_dense_product(monkeypatch):
    # every product of build_module + verify_module at (6,0), N = 64, has a
    # signed-permutation left operand, so each one is a gather
    kinds = []
    times = exactlin._times
    monkeypatch.setattr(
        exactlin,
        "_times",
        lambda na, ma, nb: kinds.append(ma is None) or times(na, ma, nb),
    )
    module = build_module.__wrapped__(CliffordSignature(6, 0))
    assert verify_module.__wrapped__(module)["passed"]
    assert kinds and not any(kinds)
