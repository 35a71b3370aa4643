"""Fault injection for the certificates that right inputs never fail: the four
checks of the (3,0)/(1,2) ideal split in ``triple._ideal_split`` and the
(anti-)isometry certificate at the end of ``scaling_isomorphism``.

Each test breaks one link, the subspace handed in or one helper the check
reads, and expects the certificate's ``HomomorphismError`` (a
``CertificateError`` from ``errors.certify``, which the CLI reports with
exit 3 for a failed certificate).
``tests/mutants.py`` switches each of these checks off in turn.
"""

import pytest

from nilforge import nilpotent, triple
from nilforge.catalog import n20
from nilforge.clifford import CliffordSignature, build_module
from nilforge.errors import HomomorphismError
from nilforge.exactlin import RationalMatrix, inverse
from nilforge.nilpotent import _j_basis, algebra_from_J, scaling_isomorphism

SIGNATURES = [(3, 0), (1, 2)]


def _split_inputs(r, s):
    """The module and its L and ad table, as the report hands them on."""
    module = build_module(CliffordSignature(r, s))
    report, ads = triple._generated(triple.clifford_triple_system(module))
    return module, report.L_basis, ads


@pytest.mark.parametrize("r, s", SIGNATURES)
def test_h_pm_outside_the_subspace(r, s):
    # W = span{J_1, J_2, J_3} lacks J_2 J_3, so h_pm = J_1 pm J_2 J_3 is outside it
    module, _, ads = _split_inputs(r, s)
    w = triple.clifford_triple_system(module)
    with pytest.raises(HomomorphismError, match="outside L"):
        triple._ideal_split(module, w, ads)


@pytest.mark.parametrize("r, s", SIGNATURES)
def test_h_pm_short_of_a_basis(r, s, monkeypatch):
    module, l, ads = _split_inputs(r, s)
    monkeypatch.setattr(triple, "rank", lambda *rows: 5)
    with pytest.raises(HomomorphismError, match="basis of L"):
        triple._ideal_split(module, l, ads)


@pytest.mark.parametrize("r, s", SIGNATURES)
def test_h_pm_failing_to_commute(r, s, monkeypatch):
    module, l, ads = _split_inputs(r, s)
    monkeypatch.setattr(triple, "_brackets_inside", lambda ads, xs, ys, target: False)
    with pytest.raises(HomomorphismError, match="commute"):
        triple._ideal_split(module, l, ads)


@pytest.mark.parametrize("r, s", SIGNATURES)
def test_a_summand_that_is_not_an_ideal(r, s, monkeypatch):
    # the commute check's target is the empty 0 x 0 matrix; every ideal check fails
    module, l, ads = _split_inputs(r, s)
    monkeypatch.setattr(triple, "_brackets_inside", lambda ads, xs, ys, target: not target.rows)
    with pytest.raises(HomomorphismError, match="not an ideal"):
        triple._ideal_split(module, l, ads)


def test_a_wrong_phi_fails_both_isometry_variants(monkeypatch):
    a1 = n20()
    a2 = algebra_from_J(_j_basis(a1), a1.form_V.scaled(4), a1.form_Z)
    assert scaling_isomorphism(a1, a2).phi_V == RationalMatrix.identity(4).scale(2)
    # phi_V = B D B^{-1} with B^{-1} doubled: phi_V = 4 I, where 2 I certifies
    monkeypatch.setattr(nilpotent, "inverse", lambda b: inverse(b).scale(2))
    with pytest.raises(HomomorphismError, match="neither isometry variant"):
        scaling_isomorphism(a1, a2)
