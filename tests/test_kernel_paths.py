"""The exact kernels' short paths against Fraction references: ``inverse``
read off the echelon combinations, ``lin_combs``' row-wise lowest terms,
``eta_conjugate``'s memoized sign matrix and ``_vec_stack``'s one-array
stack.  Each result must also be canonical: least D, int64 exactly when
every |N| is below 2**62."""

import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from nilforge import exactlin
from nilforge.errors import DimensionMismatchError, DimError, SingularMatrixError
from nilforge.exactlin import (
    RationalMatrix,
    _vec_stack,
    eta,
    eta_conjugate,
    inverse,
    lin_combs,
    solve,
)

BIG = 2**62


def _fractions(m: RationalMatrix) -> list[list[Fraction]]:
    return [list(m.row(i)) for i in range(m.rows)]


def _assert_canonical(m: RationalMatrix, rows) -> None:
    """m holds exactly the Fraction rows, over their least common denominator."""
    assert _fractions(m) == [[Fraction(x) for x in r] for r in rows]
    d = lcm(1, *(Fraction(x).denominator for r in rows for x in r))
    assert m._d == d
    big = any(abs(Fraction(x) * d) >= BIG for r in rows for x in r)
    assert m._n.dtype == (object if big else np.int64)


def _random_rational(rng: random.Random, big: bool) -> Fraction:
    if big and rng.random() < 0.3:
        return Fraction(rng.choice([-1, 1]) * rng.randrange(BIG, 2**80), rng.choice([1, 3, 7]))
    return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 5]))


def _random_matrix(rng: random.Random, rows: int, cols: int, big: bool) -> RationalMatrix:
    return RationalMatrix([[_random_rational(rng, big) for _ in range(cols)] for _ in range(rows)])


# ---------------------------------------------------------------------------
# inverse


@pytest.mark.parametrize("seed", range(12))
def test_inverse_is_a_two_sided_inverse_and_agrees_with_solve(seed):
    rng = random.Random(seed)
    n = 1 + seed % 5
    a = _random_matrix(rng, n, n, big=seed % 2 == 1)
    while exactlin.rank(a) < n:  # draw again until invertible
        a = _random_matrix(rng, n, n, big=seed % 2 == 1)
    inv = inverse(a)
    ident = RationalMatrix.identity(n)
    assert a * inv == ident and inv * a == ident
    for j in range(n):
        e_j = [int(i == j) for i in range(n)]
        assert inv.column(j) == solve(a, e_j)
    _assert_canonical(inv, _fractions(inv))


def test_inverse_with_entries_above_the_int64_bound():
    a = RationalMatrix([[2**70, 1], [1, 0]])
    assert a._n.dtype == object
    inv = inverse(a)
    _assert_canonical(inv, [[0, 1], [1, -(2**70)]])
    b = RationalMatrix([[Fraction(2**65, 3), 1], [Fraction(1, 2), Fraction(1, 5)]])
    assert b * inverse(b) == RationalMatrix.identity(2)


@pytest.mark.parametrize("x", [Fraction(-3, 7), 5, Fraction(2**70, 9)])
def test_inverse_of_a_1x1_matrix(x):
    _assert_canonical(inverse(RationalMatrix([[x]])), [[1 / Fraction(x)]])


@pytest.mark.parametrize(
    "rows",
    [
        [[0]],
        [[1, 2], [2, 4]],
        [[1, Fraction(1, 2), 3], [0, 1, 1], [2, 1 + Fraction(1, 1), 7]],
        [[2**70, 1, 0], [2**71, 2, 0], [0, 0, 1]],
    ],
)
def test_inverse_of_a_singular_matrix_raises(rows):
    with pytest.raises(SingularMatrixError):
        inverse(RationalMatrix(rows))


def test_inverse_of_a_non_square_matrix_raises():
    with pytest.raises(DimensionMismatchError):
        inverse(RationalMatrix([[1, 2]]))


# ---------------------------------------------------------------------------
# lin_combs


def _combination(row, mats, dim):
    return [
        [sum((c * m.entry(i, j) for c, m in zip(row, mats)), Fraction(0)) for j in range(dim)]
        for i in range(dim)
    ]


@pytest.mark.parametrize("big", [False, True], ids=["int64", "object"])
@pytest.mark.parametrize("seed", range(6))
def test_lin_combs_outputs_are_the_entrywise_fraction_sums(seed, big):
    rng = random.Random(100 + seed)
    dim, terms = 1 + seed % 4, 1 + seed % 3
    mats = [_random_matrix(rng, dim, dim, big) for _ in range(terms)]
    rows = [[_random_rational(rng, big) for _ in range(terms)] for _ in range(3)]
    rows.append([0] * terms)  # a zero output
    got = lin_combs(RationalMatrix(rows), mats, dim)
    assert len(got) == len(rows)
    for row, m in zip(rows, got):
        _assert_canonical(m, _combination(row, mats, dim))
    assert got[-1]._d == 1 and not got[-1]._n.any()


def test_lin_combs_reduces_each_output_on_its_own():
    # one product over D = 6; the outputs need 1, 2, 3 and 6
    mats = [RationalMatrix([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])]
    got = lin_combs(RationalMatrix([[6], [2], [3], [1]]), mats, 2)
    assert [m._d for m in got] == [1, 3, 2, 6]
    assert [m._n.dtype for m in got] == [np.int64] * 4
    for c, m in zip((6, 2, 3, 1), got):
        _assert_canonical(m, _combination([c], mats, 2))


def test_lin_combs_zero_outputs_over_a_large_denominator():
    # D_a D_b exceeds int64; a zero row still comes out as 0 / 1
    mats = [RationalMatrix([[Fraction(1, 2**40), 0], [0, 1]])]
    got = lin_combs(RationalMatrix([[0], [Fraction(1, 2**40)]]), mats, 2)
    assert got[0]._d == 1 and not got[0]._n.any()
    _assert_canonical(got[1], [[Fraction(1, 2**80), 0], [0, Fraction(1, 2**40)]])


# ---------------------------------------------------------------------------
# eta_conjugate


@pytest.mark.parametrize("p, q", [(0, 1), (1, 0), (2, 1), (1, 3), (3, 3)])
@pytest.mark.parametrize("big", [False, True], ids=["int64", "object"])
def test_eta_conjugate_is_eta_a_transpose_eta(p, q, big):
    a = _random_matrix(random.Random(p * 10 + q), p + q, p + q, big)
    e = eta(p, q)
    assert eta_conjugate(a, p, q) == e * a.transpose() * e


def test_eta_signs_are_memoized_and_read_only():
    signs = exactlin._eta_signs(2, 1)
    assert signs is exactlin._eta_signs(2, 1)
    assert signs.tolist() == [[1, 1, -1], [1, 1, -1], [-1, -1, 1]]
    assert not signs.flags.writeable
    with pytest.raises(ValueError):
        signs[0, 0] = -1
    assert eta_conjugate(RationalMatrix.identity(3), 2, 1) == RationalMatrix.identity(3)


def test_eta_conjugate_keeps_its_errors():
    with pytest.raises(DimError):
        eta_conjugate(RationalMatrix.identity(1), -1, 2)
    with pytest.raises(DimensionMismatchError):
        eta_conjugate(RationalMatrix.identity(2), 2, 1)


# ---------------------------------------------------------------------------
# _vec_stack


def _assert_stack(mats):
    stack = _vec_stack(mats)
    rows = [[x for r in _fractions(m) for x in r] for m in mats]
    _assert_canonical(stack, rows)
    assert stack._max == int(np.abs(stack._n).max())  # the bound read from the parts
    assert not stack._n.flags.writeable
    return stack


def test_vec_stack_over_mixed_denominators():
    mats = [
        RationalMatrix([[Fraction(1, 2), 0], [1, -1]]),
        RationalMatrix([[Fraction(2, 3), 5], [0, 0]]),
        RationalMatrix([[1, 2], [3, 4]]),
    ]
    assert _assert_stack(mats)._d == 6


def test_vec_stack_of_int64_and_object_terms():
    small = RationalMatrix([[1, Fraction(-1, 2)], [0, 3]])
    large = RationalMatrix([[2**70, 0], [Fraction(1, 3), -1]])
    assert small._n.dtype == np.int64 and large._n.dtype == object
    for mats in ([small, large], [large, small], [small, small, large]):
        stack = _assert_stack(mats)
        assert stack._n.dtype == object
    # an int64 stack whose scaled terms reach the bound holds Python ints
    near = RationalMatrix([[BIG - 1, 0], [0, 1]])
    assert _assert_stack([near, RationalMatrix([[Fraction(1, 2), 0], [0, 0]])])._d == 2
    assert small._n.dtype == np.int64  # the inputs are left as they were


def test_vec_stack_uses_terms_with_factor_one_as_they_are():
    a = RationalMatrix([[1, 2], [3, 4]])
    b = RationalMatrix([[0, -1], [5, 6]])
    stack = _assert_stack([a, b])
    assert stack._n.dtype == np.int64 and stack._d == 1
    assert stack._n.tolist() == [[1, 2, 3, 4], [0, -1, 5, 6]]
    assert not np.shares_memory(stack._n, a._n)
