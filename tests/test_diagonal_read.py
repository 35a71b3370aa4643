"""Inertia and inverse of a diagonal matrix, read off its diagonal.

``signature`` counts the signs of a diagonal matrix's diagonal and
``inverse`` writes row i as (D / N_ii) e_i; every other matrix takes the
fraction-free elimination.  Both reads are checked against copies of the
elimination code on random diagonal matrices (zeros, negatives, D > 1,
entries past 2**62, 0 x 0 and 1 x 1), the errors are checked to come as
before, and a single off-diagonal nonzero is shown to reach the elimination.
``free_isomorphism`` reports the trace Gram's diagonal through the same read.
"""

import dataclasses
import random
from fractions import Fraction

import pytest
from test_canonical_form import assert_canonical

from nilforge import exactlin, standardform
from nilforge.errors import NotSymmetricError, SingularMatrixError
from nilforge.exactlin import (
    RationalMatrix,
    SignatureForm,
    SpanBuilder,
    _cancel,
    diagonal_entries,
    inverse,
    signature,
)

SEEDS = range(40)


def _eliminated_signature(m: RationalMatrix) -> tuple[int, int, int]:
    """The inertia by fraction-free symmetric elimination, for every matrix."""
    rows = {i: {j: x for j, x in enumerate(r) if x} for i, r in enumerate(m._n.tolist())}
    pos = neg = 0
    while rows := {i: r for i, r in rows.items() if r}:
        k = next((i for i, r in rows.items() if i in r), None)
        if k is None:
            i = next(iter(rows))
            j = min(rows[i])
            steps, pos, neg = [(i, j), (j, i)], pos + 1, neg + 1
        elif rows[k][k] > 0:
            steps, pos = [(k, k)], pos + 1
        else:
            steps, neg = [(k, k)], neg + 1
        for piv, col in steps:
            pnum = rows.pop(piv)
            if pnum[col] < 0:
                pnum = {c: -x for c, x in pnum.items()}
            for r in rows.values():
                if col in r:
                    _cancel(r, {}, pnum, {}, col)
    return pos, neg, m.rows - pos - neg


def _eliminated_inverse(a: RationalMatrix) -> RationalMatrix:
    """A^{-1} from the echelon rows of N's rows, for every invertible matrix."""
    span = SpanBuilder(a._n)
    if span.dim != a.rows:
        raise SingularMatrixError("matrix is singular")
    d = a._d
    rels = [
        ({l: d * x for l, x in comb.items()}, num[p])
        for p, (num, comb) in sorted(span._rows.items())
    ]
    return RationalMatrix.from_relations(rels, a.rows)


def _diagonal(rng: random.Random, zeros: bool) -> RationalMatrix:
    """A random diagonal matrix of size 0 to 6: negatives, D > 1, huge entries."""
    values = []
    for _ in range(rng.randint(0, 6)):
        kind = rng.random()
        if zeros and kind < 0.2:
            values.append(0)
            continue
        n = rng.randint(1, 9) if kind < 0.8 else rng.choice([2**70 + rng.randint(0, 9), 2**62])
        values.append(Fraction(rng.choice([-1, 1]) * n, rng.choice([1, 1, 2, 3, 6, 2**65])))
    return RationalMatrix.diag(values)


@pytest.mark.parametrize("seed", SEEDS)
def test_the_diagonal_reads_equal_the_elimination(seed):
    rng = random.Random(seed)
    m = _diagonal(rng, zeros=True)
    assert signature(m) == _eliminated_signature(m)
    assert SignatureForm(m).nullity == _eliminated_signature(m)[2]
    a = _diagonal(rng, zeros=False)
    inv = inverse(a)
    assert inv == _eliminated_inverse(a)
    assert_canonical(inv)
    assert a * inv == RationalMatrix.identity(a.rows)


def test_the_diagonal_reads_at_sizes_zero_and_one():
    empty = RationalMatrix.zeros(0, 0)
    assert signature(empty) == _eliminated_signature(empty) == (0, 0, 0)
    assert inverse(empty) == _eliminated_inverse(empty) == empty
    for x in (0, 3, Fraction(-5, 2), 2**70, Fraction(-(2**70), 3)):
        one = RationalMatrix([[x]])
        assert signature(one) == _eliminated_signature(one)
        if x:
            assert inverse(one) == _eliminated_inverse(one) == RationalMatrix([[1 / Fraction(x)]])


def test_a_zero_on_the_diagonal_is_singular():
    for values in ([0], [1, 0, -2], [Fraction(1, 2), 2**70, 0]):
        with pytest.raises(SingularMatrixError):
            inverse(RationalMatrix.diag(values))
        with pytest.raises(SingularMatrixError):
            SignatureForm(RationalMatrix.diag(values)).inverse_matrix()


def test_an_asymmetric_matrix_has_no_signature():
    lower = [[1, 0, 0], [0, 1, 0], [Fraction(1, 2), 0, 1]]
    for rows in ([[1, 1], [0, 1]], [[0, 2], [0, 0]], lower):
        with pytest.raises(NotSymmetricError):
            signature(RationalMatrix(rows))
        with pytest.raises(NotSymmetricError):
            SignatureForm(RationalMatrix(rows))


def test_one_off_diagonal_nonzero_takes_the_elimination(monkeypatch):
    calls = {"cancel": 0, "span": 0}

    def counted_cancel(*args):
        calls["cancel"] += 1
        return _cancel(*args)

    class CountedSpan(SpanBuilder):
        def __init__(self, vectors=()):
            calls["span"] += 1
            super().__init__(vectors)

    monkeypatch.setattr(exactlin, "_cancel", counted_cancel)
    monkeypatch.setattr(exactlin, "SpanBuilder", CountedSpan)
    diag = RationalMatrix.diag([2, -3, Fraction(1, 2)])
    assert signature(diag) == (2, 1, 0)
    assert inverse(diag) == RationalMatrix.diag([Fraction(1, 2), Fraction(-1, 3), 2])
    assert calls == {"cancel": 0, "span": 0}
    # the references call the unpatched _cancel and SpanBuilder
    near = RationalMatrix([[2, 0, 1], [0, -3, 0], [1, 0, Fraction(1, 2)]])
    assert signature(near) == _eliminated_signature(near) == (1, 1, 1)
    assert calls["cancel"] > 0
    skew = RationalMatrix([[2, 0, 1], [0, -3, 0], [0, 0, 1]])
    assert inverse(skew) == _eliminated_inverse(skew)
    assert calls["span"] == 1


def test_free_isomorphism_reads_the_gram_diagonal_as_exactlin_does(monkeypatch):
    seen = []

    def recorded(m):
        seen.append((m, diagonal_entries(m)))
        return seen[-1][1]

    monkeypatch.setattr(standardform, "diagonal_entries", recorded)
    iso = standardform.free_isomorphism(2, 1)
    target = standardform.free_algebra(2, 1)
    assert [m for m, _ in seen] == [target.gram_W]
    assert (iso["gram_diagonal"], iso["gram_is_diagonal"]) == seen[0][1]
    assert iso["gram_is_diagonal"] and iso["certified"]
    # a Gram with a nonzero off its diagonal is reported as not diagonal
    gram = target.gram_W + RationalMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    bent = dataclasses.replace(target, gram_W=gram)
    free = standardform.free_algebra
    monkeypatch.setattr(
        standardform, "free_algebra", lambda p, q: bent if (p, q) == (2, 1) else free(p, q)
    )
    iso = standardform.free_isomorphism(2, 1)
    assert iso["gram_diagonal"] == [gram.entry(i, i) for i in range(3)]
    assert not iso["gram_is_diagonal"] and not iso["certified"]
