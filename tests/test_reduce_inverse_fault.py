"""A fault in ``exactlin.inverse`` fails the reduction certificate.

The reduction's certificate multiplies the standard structure back by the
trace Gram, G C' = -C, and uses no inverse.  A certificate that formed
-G^{-1} C a second time with the same G^{-1} agreed with a wrong inverse:
with ``inverse`` returning A^{-1} + I, ``reduce`` on n_{2,0} printed a wrong
T and a wrong standard structure, and exited 0.
"""

import json

import pytest

from nilforge import cli, exactlin, standardform
from nilforge.catalog import n20
from nilforge.errors import HomomorphismError
from nilforge.exactlin import RationalMatrix


def _inverse_plus_identity(monkeypatch):
    real = exactlin.inverse
    monkeypatch.setattr(exactlin, "inverse", lambda a: real(a) + RationalMatrix.identity(a.rows))


def test_reduce_reports_a_faulted_inverse(monkeypatch, capsys, tmp_path):
    path = tmp_path / "n20.json"
    cli.save_algebra(n20().algebra, str(path))
    assert cli.main(["reduce", str(path)]) == 0
    capsys.readouterr()
    _inverse_plus_identity(monkeypatch)
    assert cli.main(["reduce", str(path)]) != 0
    assert json.loads(capsys.readouterr().out)["error"] == "ERR_HOMOMORPHISM"


def test_each_realization_rejects_a_faulted_inverse(monkeypatch):
    a = n20().algebra
    found = standardform.find_realizations(a)
    assert found
    _inverse_plus_identity(monkeypatch)
    for real in found:
        with pytest.raises(HomomorphismError):
            standardform.reduction_isomorphism(a, real["p"], real["q"])
