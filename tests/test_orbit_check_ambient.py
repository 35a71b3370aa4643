"""``orbit-check`` rejects a subspace of the wrong ambient as input.

A W1 or W2 whose ambient is not p+q is an input error (``ERR_DIM_MISMATCH``,
exit 2), not a check that ran and failed (exit 1); it is rejected before
any product or rank is computed.
"""

import json

import pytest

from nilforge import standardform
from nilforge.cli import canonical_json, main
from nilforge.exactlin import MatrixSubspace, RationalMatrix
from nilforge.standardform import so_basis


@pytest.fixture
def no_products(monkeypatch):
    """Record every matrix product and every rank that the verb reaches."""
    seen = []
    real_mul, real_rank = RationalMatrix.__mul__, standardform.rank

    def mul(self, other):
        seen.append("product")
        return real_mul(self, other)

    def rank(*ms):
        seen.append("rank")
        return real_rank(*ms)

    monkeypatch.setattr(RationalMatrix, "__mul__", mul)
    monkeypatch.setattr(standardform, "rank", rank)
    return seen


def _orbit_check(tmp_path, capsys, a, w1, w2, p, q):
    paths = []
    for name, obj in (("a", a), ("w1", w1), ("w2", w2)):
        path = tmp_path / f"{name}.json"
        path.write_text(canonical_json(obj))
        paths.append(str(path))
    code = main(["orbit-check", *paths, "--p", str(p), "--q", str(q)])
    return code, json.loads(capsys.readouterr().out)


def test_a_source_of_another_ambient_is_an_input_error(tmp_path, capsys, no_products):
    a = RationalMatrix.identity(2).to_json()
    w1 = {"ambient": 3, "basis": []}
    code, out = _orbit_check(tmp_path, capsys, a, w1, so_basis(2, 0).to_json(), 2, 0)
    assert (code, out["error"]) == (2, "ERR_DIM_MISMATCH")
    assert no_products == []


def test_a_target_of_another_ambient_is_an_input_error(tmp_path, capsys, no_products):
    a = RationalMatrix.identity(2).to_json()
    w2 = MatrixSubspace(5).to_json()
    code, out = _orbit_check(tmp_path, capsys, a, so_basis(2, 0).to_json(), w2, 2, 0)
    assert (code, out["error"]) == (2, "ERR_DIM_MISMATCH")
    assert no_products == []
