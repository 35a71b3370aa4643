"""Every producer of a ``RationalMatrix`` returns the canonical (shape, D, N).

``==`` and ``hash`` compare (shape, D, N) directly, so the certificates that
compare matrices are sound only when every matrix is in that one form:

- lowest terms: gcd(content(N), D) = 1, so a zero N has D = 1;
- N is int64 exactly when max |N| < 2**62, and a Python-int array otherwise;
- a bound cached by the producer equals max |N|.

Each producer runs on seeded operands with D = 1 and D > 1, entries on both
sides of 2**62, signed permutations (the gather products) and zero results.
"""

import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from nilforge.exactlin import (
    _INT64_BOUND,
    RationalMatrix,
    block_diag,
    commutator,
    eta_conjugate,
    inverse,
    lin_combs,
    rank,
    rref,
    trace_pairing,
)

SEEDS = range(24)
HUGE = 2**62


def assert_canonical(m: RationalMatrix) -> None:
    n, d = m._n, m._d
    assert n.shape == (m.rows, m.cols) and (m.rows or not m.cols)
    values = n.ravel().tolist()
    assert all(type(x) is int for x in values)
    top = max(map(abs, values), default=0)
    assert type(d) is int and d >= 1
    assert gcd(*values, d) == 1  # a zero N gives gcd(0, D) = D, so D = 1
    assert n.dtype == (np.int64 if top < _INT64_BOUND else object)
    assert m._max is None or m._max == top


def _value(rng: random.Random, den: int, huge: bool) -> Fraction:
    kind = rng.random()
    if kind < 0.25:
        return Fraction(0)
    if huge and kind > 0.8:
        big = HUGE + rng.randint(-2, 2**10)
        return Fraction(rng.choice([-1, 1]) * big, rng.choice([1, den]))
    return Fraction(rng.randint(-6, 6), rng.choice([1, den]))


def _matrix(rng, rows, cols, den=1, huge=False) -> RationalMatrix:
    """Seeded entries over 1 or den; with ``huge``, entry (0, 0) is at least 2**62."""
    entries = [[_value(rng, den, huge) for _ in range(cols)] for _ in range(rows)]
    if huge:
        entries[0][0] = Fraction(HUGE + rng.randint(0, 2**10), rng.choice([1, den]))
    return RationalMatrix(entries)


def _operands(seed: int):
    """Square k x k operands: integer, over D > 1, and with huge entries."""
    rng = random.Random(seed)
    k = rng.randint(1, 4)
    den = rng.choice([2, 3, 4, 6])
    return rng, k, [
        _matrix(rng, k, k),
        _matrix(rng, k, k, den),
        _matrix(rng, k, k, den, huge=True),
    ]


def _signed_permutation(rng, n: int, scale) -> RationalMatrix:
    order = list(range(n))
    rng.shuffle(order)
    rows = [[0] * n for _ in range(n)]
    for i, j in enumerate(order):
        rows[i][j] = rng.choice([-1, 1]) * scale
    return RationalMatrix(rows)


def _check_all(results) -> None:
    for m in results:
        assert_canonical(m)


@pytest.mark.parametrize("seed", SEEDS)
def test_arithmetic_results_are_canonical(seed):
    rng, k, ops = _operands(seed)
    c = _value(rng, rng.choice([2, 5]), huge=seed % 2 == 0)
    results = []
    for a in ops:
        for b in ops:
            results += [a * b, commutator(a, b), a + b, a - b, block_diag(a, b)]
        order = list(range(k))
        rng.shuffle(order)
        p = rng.randint(0, k)
        results += [
            -a,
            a.scale(c),
            a * c,
            a.scale(0),
            a - a,
            commutator(a, a),
            a.transpose(),
            eta_conjugate(a, p, k - p),
        ]
    _check_all(results)


@pytest.mark.parametrize("seed", SEEDS)
def test_gathered_products_are_canonical(seed):
    rng = random.Random(seed)
    n = 16
    den = rng.choice([2, 3, 6])
    scale = rng.choice([1, Fraction(2, den), HUGE + 1])
    perm = _signed_permutation(rng, n, scale)
    dense = _matrix(rng, n, n, den, huge=seed % 3 == 0)
    results = [perm * dense, dense * perm, perm * perm, commutator(perm, dense)]
    results += [commutator(perm, perm), perm * RationalMatrix.zeros(n, n)]
    _check_all(results)


@pytest.mark.parametrize("seed", SEEDS)
def test_linear_combinations_are_canonical(seed):
    rng, k, ops = _operands(seed)
    den = rng.choice([2, 3, 4])
    small = _matrix(rng, 4, 3, den)
    huge = _matrix(rng, 4, 3, den, huge=True)
    # the last row scales everything by 0 over D > 1
    zero_row = RationalMatrix([[0, 0, 0], [Fraction(1, den)] * 3])
    ident = RationalMatrix.identity(k)
    # I / den from numerators 2 over 2 den, and 2**62 I in Python ints
    results = lin_combs(RationalMatrix([[Fraction(1, 2 * den)] * 2, [HUGE, 0]]), [ident] * 2, k)
    for a in (small, huge, zero_row):
        results += lin_combs(a, ops, k)
        results += lin_combs(a.scale(den), [m.scale(den) for m in ops], k)
    assert any(m._n.dtype == object for m in results)
    assert any(m._n.dtype == np.int64 and m._d > 1 for m in results)
    assert any(not m._n.any() for m in results)
    results += [trace_pairing(ops, ops), trace_pairing(ops, [RationalMatrix.zeros(k, k)])]
    _check_all(results)


@pytest.mark.parametrize("seed", SEEDS)
def test_constructed_and_eliminated_matrices_are_canonical(seed):
    rng, k, ops = _operands(seed)
    den = rng.choice([2, 3, 6])
    rels = [
        (
            {j: rng.randint(-4, 4) * rng.choice([1, HUGE]) for j in rng.sample(range(k), k // 2)},
            rng.choice([1, den, 2 * den]),
        )
        for _ in range(rng.randint(0, 4))
    ]
    results = [
        RationalMatrix.from_relations(rels, k),
        RationalMatrix.from_relations([({0: den}, den), ({}, den)], k),
        RationalMatrix.diag([_value(rng, den, huge=True) for _ in range(k)]),
        RationalMatrix.diag([0] * k),
    ]
    for a in ops:
        results.append(rref(a)[0])
        if rank(a) == k:
            results.append(inverse(a))
    results.append(inverse(RationalMatrix.identity(k).scale(Fraction(den, 2 * den + 1))))
    _check_all(results)
