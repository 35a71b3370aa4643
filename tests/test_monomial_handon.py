"""A transpose and a negation hand on the monomial form they already have.

``exactlin._monomial`` scans an N x N matrix once for being a signed
permutation.  M^T's form is M's index inversion and -M's flips the values,
so neither is scanned again when M's form is known: ``h_type_laws`` then
scans G_V J_k but not J_k^T.  The laws stay equal to the per-pair check.
"""

import random

import numpy as np
import pytest

from nilforge import exactlin
from nilforge.clifford import CliffordSignature, build_module, verify_module
from nilforge.exactlin import RationalMatrix, _int_form, _monomial
from nilforge.nilpotent import h_type_laws


def _fresh(m: RationalMatrix, transposed: bool = False) -> RationalMatrix:
    """A copy of m (or of m^T) whose monomial form is not known yet."""
    n, d = _int_form(m)
    n = n.T if transposed else n
    return RationalMatrix.from_relations(
        [({j: x for j, x in enumerate(row) if x}, d) for row in n.tolist()], n.shape[1]
    )


def _signed_permutation(rng, size, scale=1):
    cols = list(range(size))
    rng.shuffle(cols)
    rows = [[0] * size for _ in range(size)]
    for i, j in enumerate(cols):
        rows[i][j] = rng.choice([-1, 1, 2, -3]) * scale
    return RationalMatrix(rows)


def _same_form(got, want):
    if not want:
        return got is None
    return got is not None and all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("size", [3, 16, 17, 32])
@pytest.mark.parametrize("scale", [1, 2**70])
def test_handed_on_forms_equal_a_fresh_scan(size, scale):
    rng = random.Random(size)
    mono = _signed_permutation(rng, size, scale)
    dense = mono + RationalMatrix.identity(size)  # two nonzeros in some row
    for m in (mono, dense):
        _monomial(m)
        for derived in (m.transpose(), -m, -(m.transpose()), (-m).transpose().transpose()):
            assert _same_form(_monomial(derived), _monomial(_fresh(derived)))
            assert derived == _fresh(derived)


def test_no_form_is_handed_on_before_it_is_known():
    m = _signed_permutation(random.Random(1), 16)
    t = m.transpose()
    assert _same_form(_monomial(t), _monomial(_fresh(t)))
    assert _same_form(_monomial(-m), _monomial(_fresh(-m)))


def _count_scans(monkeypatch, call):
    real, scanned = exactlin._monomial, []

    def counted(m):
        if m._mono is None:
            scanned.append(m.rows)
        return real(m)

    monkeypatch.setattr(exactlin, "_monomial", counted)
    result = call()
    monkeypatch.setattr(exactlin, "_monomial", real)
    return len(scanned), result


def _laws_per_pair(js, g_v, g_z):
    """The per-pair law check ``h_type_laws`` made before ``polarized_match``."""
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


@pytest.mark.parametrize("r, s", [(6, 0), (3, 3)])
def test_verify_module_scans_fewer_matrices(monkeypatch, r, s):
    module = build_module.__wrapped__(CliffordSignature(r, s))  # fresh generators
    handed, report = _count_scans(monkeypatch, lambda: verify_module.__wrapped__(module))
    assert report["passed"]
    # the same check with transposes that drop the form, as before the hand-on
    monkeypatch.setattr(RationalMatrix, "transpose", lambda m: _fresh(m, transposed=True))
    dropped, again = _count_scans(monkeypatch, lambda: verify_module.__wrapped__(module))
    monkeypatch.undo()
    assert again == report
    n = r + s
    # G_V J_k and the unit are scanned; J_k^T no longer is
    assert handed == n + 1 and dropped == 2 * n + 1
    g_z = RationalMatrix.diag([1] * r + [-1] * s)
    laws = h_type_laws(module.generators, module.module_form.matrix, g_z)
    assert laws == _laws_per_pair(list(module.generators), module.module_form.matrix, g_z)
    assert all(laws.values())
