"""Helpers that several test files share, imported by bare name
(``from helpers import kron``): pytest collects no tests here.

Two kinds live here: references that the package itself never computes
(dense Kronecker products and basis permutations, a matrix as a sparse dict,
random adapted algebras, the per-pair pseudo H-type law check), each built
over the public API or ``_int_form``, and the small helpers and fixtures that
more than one test file would otherwise define with the same body.
"""

import json
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from nilforge import exactlin
from nilforge.errors import DimensionMismatchError
from nilforge.exactlin import (
    MatrixSubspace,
    RationalMatrix,
    SignatureForm,
    _int_form,
    _ratio_str,
)
from nilforge.nilpotent import MetricAlgebra, NilpotentAlgebra2


def _from_rows(rows, d: int) -> RationalMatrix:
    """The matrix of integer rows over the denominator d."""
    rels = [({j: x for j, x in enumerate(row) if x}, d) for row in rows]
    return RationalMatrix.from_relations(rels, len(rows[0]) if rows else 0)


def kron(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """The Kronecker product a (x) b."""
    (na, da), (nb, db) = _int_form(a), _int_form(b)
    return _from_rows(np.kron(na.astype(object), nb.astype(object)).tolist(), da * db)


def permute(m: RationalMatrix, order) -> RationalMatrix:
    """P^T M P for the permutation P e_i = e_order[i] of a square M: the
    matrix (M[order[i], order[j]])_ij."""
    if not m.is_square() or sorted(order) != list(range(m.rows)):
        raise DimensionMismatchError(f"{order!r} is not a permutation of {m.rows} indices")
    n, d = _int_form(m)
    return _from_rows(n[np.ix_(order, order)].tolist(), d)


def matrix_to_sparse(m: RationalMatrix) -> dict:
    """m row-major as a dict {i * cols + j: M_ij} of its nonzero entries."""
    return {k: x for k, x in enumerate(m.entries()) if x}


def random_adapted_algebra(rng: random.Random, max_m: int = 4) -> MetricAlgebra:
    """Seeded random adapted metric algebra with m <= max_m.

    Structure matrices are random integer antisymmetric matrices kept only
    when linearly independent; forms are standard diagonal signatures with
    a random index split.
    """
    m = rng.randint(2, max_m)
    max_n = m * (m - 1) // 2
    n = rng.randint(1, min(3, max_n))
    space = MatrixSubspace(m)
    while space.dim < n:
        rows = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                v = rng.randint(-2, 2)
                rows[i][j] = v
                rows[j][i] = -v
        space.adjoin(RationalMatrix(rows))
    p = rng.randint(0, m)
    pz = rng.randint(0, n)
    algebra = NilpotentAlgebra2(
        m=m,
        n=n,
        structure=space.basis,
        form_V=SignatureForm.standard(p, m - p),
        form_Z=SignatureForm.standard(pz, n - pz),
        tag="adapted",
    )
    return MetricAlgebra(algebra)


def _laws_per_pair(js, g_v, g_z):
    """The per-pair law check ``h_type_laws`` made before ``polarized_match``:
    one product, sum and comparison for every pair of maps."""
    js = list(js)
    n = len(js)
    gz, dz = _int_form(g_z)
    gz = gz.tolist()
    unit = RationalMatrix.from_relations([({i: 1}, dz) for i in range(g_v.rows)], g_v.rows)
    g_unit = g_v * unit
    jts = [j.transpose() for j in js]
    gjs = [g_v * j for j in js]
    pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
    return {
        "skew": all(gj.is_antisymmetric() for gj in gjs),
        "square": all(j * j == unit.scale(-gz[k][k]) for k, j in enumerate(js)),
        "anticommutation": all(
            js[k] * js[l] + js[l] * js[k] == unit.scale(-2 * gz[k][l]) for k, l in pairs
        ),
        "orthogonality": all(jts[k] * gjs[k] == g_unit.scale(gz[k][k]) for k in range(n))
        and all(
            jts[k] * gjs[l] + jts[l] * gjs[k] == g_unit.scale(2 * gz[k][l]) for k, l in pairs
        ),
    }


def _reference(value) -> str:
    """The canonical text as ``json.dumps`` writes it."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def _unit(n, k):
    return [1 if i == k else 0 for i in range(n)]


def _form(*diag):
    return SignatureForm(RationalMatrix.diag(list(diag)))


@pytest.fixture
def texts(monkeypatch):
    """Counts the entry texts that ``exactlin._ratio_str`` makes."""
    seen = Counter()

    def counted(n, d):
        seen["_ratio_str"] += 1
        return _ratio_str(n, d)

    monkeypatch.setattr(exactlin, "_ratio_str", counted)
    return seen


@pytest.fixture
def fractions(monkeypatch):
    """Counts the Fractions built."""
    seen = Counter()
    new = Fraction.__new__

    def counted(*args, **kwargs):
        seen["Fraction"] += 1
        return new(*args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    return seen
