"""``lin_combs``, the one product that turns coefficient rows into matrices,
against a nested-loop Fraction reference; the length rule of ``lin_comb``
and ``MatrixSubspace.element``; and the paths above it that build no
Fraction."""

import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilforge import cli, triple
from nilforge.clifford import CliffordSignature, build_module
from nilforge.errors import DimensionMismatchError
from nilforge.exactlin import MatrixSubspace, RationalMatrix, lin_comb, lin_combs

PROPS = settings(max_examples=80, deadline=None, derandomize=True)

# mixed denominators, and numerators on both sides of the int64 bound
rationals = st.builds(
    Fraction,
    st.one_of(st.integers(-9, 9), st.integers(2**62 - 3, 2**62 + 3), st.integers(-(2**70), 2**70)),
    st.sampled_from([1, 1, 2, 3, 6, 7]),
)


def _rows(k, cols):
    # a row of zeros now and then, and k x 0 when there are no columns
    row = st.one_of(
        st.lists(rationals, min_size=cols, max_size=cols),
        st.just([Fraction(0)] * cols),
    )
    return st.lists(row, min_size=k, max_size=k)


def _reference(rows, mats, dim):
    return [
        [
            [sum((c * m.entry(i, j) for c, m in zip(row, mats)), Fraction(0)) for j in range(dim)]
            for i in range(dim)
        ]
        for row in rows
    ]


@PROPS
@given(st.data())
def test_lin_combs_matches_the_fraction_reference(data):
    k, terms, dim = (data.draw(st.integers(0, 3)) for _ in range(3))
    mats = [RationalMatrix(data.draw(_rows(dim, dim))) for _ in range(terms)]
    rows = data.draw(_rows(k, terms))
    got = lin_combs(RationalMatrix(rows), mats, dim)
    # a matrix with no rows is 0 x 0, so no rows give no matrices
    assert got == [RationalMatrix(r) for r in _reference(rows, mats, dim)]
    assert all(m == RationalMatrix(m.to_json()["entries"]) for m in got)  # lowest terms
    for row, m in zip(rows, got):
        assert lin_comb(row, mats, dim) == m


def test_lin_combs_edge_shapes():
    eye = RationalMatrix.identity(2)
    assert lin_combs(RationalMatrix([]), [eye, eye], 2) == []
    assert lin_combs(RationalMatrix([[], []]), [], 2) == [RationalMatrix.zeros(2, 2)] * 2
    assert lin_combs(RationalMatrix([[1, 2]]), [RationalMatrix([])] * 2, 0) == [RationalMatrix([])]
    with pytest.raises(DimensionMismatchError):
        lin_combs(RationalMatrix([[1, 2]]), [eye, RationalMatrix.identity(3)], 2)
    with pytest.raises(DimensionMismatchError):
        lin_combs(RationalMatrix([[1, 2, 3]]), [eye, eye], 2)


@pytest.mark.parametrize("coeffs", [[1, 2, 3], [1], []])
def test_wrong_length_coefficients_raise(coeffs):
    # zipping coefficients with matrices would cut the longer list short, silently
    eye, j = RationalMatrix.identity(2), RationalMatrix([[0, 1], [-1, 0]])
    with pytest.raises(DimensionMismatchError):
        lin_comb(coeffs, [eye, j], 2)
    with pytest.raises(DimensionMismatchError):
        MatrixSubspace(2, [eye, j]).element(coeffs)
    assert MatrixSubspace(2, [eye, j]).element([1, 2]) == eye + j.scale(2)


@pytest.fixture
def fractions(monkeypatch):
    seen = Counter()
    new = Fraction.__new__

    def counted(*args, **kwargs):
        seen["Fraction"] += 1
        return new(*args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    return seen


def _algebra_json(rng, m, n, d):
    cs = []
    for _ in range(n):
        c = [["0"] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                x = rng.randint(-3, 3)
                c[i][j], c[j][i] = f"{x}/{d}", f"{-x}/{d}"
        cs.append(c)

    def diag(k):
        signs = [rng.choice((1, -1)) for _ in range(k)]
        return {"entries": [[str(signs[i] if i == j else 0) for j in range(k)] for i in range(k)]}

    return {"m": m, "n": n, "C": cs, "form_V": diag(m), "form_Z": diag(n), "tag": "adapted"}


def test_reduce_with_denominators_builds_no_fraction(tmp_path, capsys, fractions):
    path = tmp_path / "algebra.json"
    path.write_text(cli.canonical_json(_algebra_json(random.Random(6), 6, 3, 6)), encoding="utf-8")
    fractions.clear()
    assert cli.main(["reduce", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert fractions["Fraction"] == 0
    # the reductions ran, and G^{-1} in T = diag(I, -G^{-1}) has denominators
    entries = [x for t in out["reductions"] for row in t["T"]["entries"] for x in row]
    assert any("/" in x for x in entries)


def test_the_ideal_probe_builds_no_fraction(fractions):
    report, ads = triple._clifford_generated(build_module(CliffordSignature(3, 0)))
    fractions.clear()
    probe = triple._probe(ads, seed=0)
    assert fractions["Fraction"] == 0
    assert report.L_dim == 6 and (probe is None or 0 < probe["ideal_dim"] < 6)
