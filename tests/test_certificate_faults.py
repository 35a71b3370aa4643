"""Fault injection: each certificate is fed a wrong object and must reject it.

A checker that only ever sees right witnesses cannot be told apart from one
that accepts everything; these tests break one link at a time and expect
the certificate's error.  ``tests/mutants.py`` lists the checks they guard.
"""

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import nilforge
from nilforge import clifford, cli, exactlin, lattice, standardform
from nilforge.catalog import n20
from nilforge.clifford import CliffordSignature
from nilforge.errors import DimensionMismatchError, HomomorphismError, SingularAError
from nilforge.exactlin import RationalMatrix
from nilforge.standardform import (
    apply_free_automorphism,
    eta_twist,
    gl_action,
    so_basis,
    structure_space,
)

SRC = Path(nilforge.__file__).parent
_spec = importlib.util.spec_from_file_location("mutants", Path(__file__).with_name("mutants.py"))
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def _unit(m: int, i: int, j: int) -> RationalMatrix:
    return RationalMatrix([[int((a, b) == (i, j)) for b in range(m)] for a in range(m)])


def _wrong_in_so(monkeypatch):
    monkeypatch.setattr(standardform, "in_so", lambda m, p, q: False)


def _wrong_eta_conjugate(monkeypatch):
    # X^eta off by one in entry (0, 0)
    real = standardform.eta_conjugate
    monkeypatch.setattr(
        standardform, "eta_conjugate", lambda m, p, q: real(m, p, q) + _unit(m.rows, 0, 0)
    )


@pytest.mark.parametrize("wrong", [_wrong_in_so, _wrong_eta_conjugate])
def test_eta_twist_rejects_a_wrong_so_check(monkeypatch, wrong):
    c = structure_space(n20().algebra)
    eta_twist(c, 2, 2, "right")
    wrong(monkeypatch)
    for side in ("right", "left"):
        with pytest.raises(HomomorphismError):
            eta_twist(c, 2, 2, side)


@pytest.mark.parametrize("wrong", [_wrong_in_so, _wrong_eta_conjugate])
def test_gl_action_rejects_a_wrong_so_check(monkeypatch, wrong):
    a = RationalMatrix([[1, 2, 0], [0, 1, 0], [1, 0, 1]])
    w = so_basis(2, 1)
    gl_action(a, w, 2, 1)
    wrong(monkeypatch)
    with pytest.raises(HomomorphismError):
        gl_action(a, w, 2, 1)


def _automorphism_args():
    p, q = 2, 1
    a = RationalMatrix([[1, 2, 0], [0, 1, 0], [1, 0, 1]])
    s_hom = [so_basis(p, q).basis[0].scale(k) for k in range(3)]
    return p, q, a, s_hom, ((1, 2, 3), so_basis(p, q).basis[1])


def test_free_automorphism_rejects_a_negated_bracket(monkeypatch):
    p, q, a, s_hom, x = _automorphism_args()
    apply_free_automorphism(p, q, a, s_hom, x)
    real = standardform.free_bracket
    monkeypatch.setattr(standardform, "free_bracket", lambda *args: -real(*args))
    with pytest.raises(HomomorphismError):
        apply_free_automorphism(p, q, a, s_hom, x)


def test_free_automorphism_rejects_a_wrongly_sized_a():
    p, q, _, s_hom, x = _automorphism_args()
    with pytest.raises(DimensionMismatchError):
        apply_free_automorphism(p, q, RationalMatrix.identity(4), s_hom, x)


def test_free_automorphism_rejects_a_singular_a():
    p, q, _, s_hom, x = _automorphism_args()
    singular = RationalMatrix([[1, 2, 0], [2, 4, 0], [0, 0, 1]])
    with pytest.raises(SingularAError):
        apply_free_automorphism(p, q, singular, s_hom, x)


def test_free_automorphism_rejects_an_s_hom_outside_so():
    p, q, _, _, x = _automorphism_args()
    ident = RationalMatrix.identity(3)
    with pytest.raises(HomomorphismError):
        apply_free_automorphism(p, q, ident, [ident] * 3, x)


def _perturb_standard_target(monkeypatch):
    """The reduce targets' construction with each target's C^1 entry (0, 1)
    raised by 1 (and (1, 0) lowered, so the target stays an adapted algebra)."""
    real = standardform._standard_targets

    def perturbed(a, kept):
        targets = []
        for std in real(a, kept):
            c = std.algebra.structure
            bump = _unit(c[0].rows, 0, 1) - _unit(c[0].rows, 1, 0)
            wrong = dataclasses.replace(std.algebra, structure=(c[0] + bump,) + c[1:])
            targets.append(dataclasses.replace(std, algebra=wrong))
        return targets

    monkeypatch.setattr(standardform, "_standard_targets", perturbed)


def test_reduction_rejects_a_perturbed_target(monkeypatch):
    a = n20().algebra
    for real in standardform.find_realizations(a):
        standardform.reduction_isomorphism(a, real["p"], real["q"])
    _perturb_standard_target(monkeypatch)
    for real in standardform.find_realizations(a):
        with pytest.raises(HomomorphismError):
            standardform.reduction_isomorphism(a, real["p"], real["q"])


def test_reduce_verb_reports_a_perturbed_target(monkeypatch, capsys, tmp_path):
    path = tmp_path / "n20.json"
    cli.save_algebra(n20().algebra, str(path))
    assert cli.main(["reduce", str(path)]) == 0
    capsys.readouterr()
    _perturb_standard_target(monkeypatch)
    assert cli.main(["reduce", str(path)]) != 0
    assert json.loads(capsys.readouterr().out)["error"] == "ERR_HOMOMORPHISM"


def test_pseudo_h_pipeline_rejects_a_perturbed_gram(monkeypatch, capsys):
    real = lattice.standard_algebra

    def perturbed(p, q, w):
        std = real(p, q, w)
        return dataclasses.replace(std, gram_W=std.gram_W + _unit(std.gram_W.rows, 0, 1))

    monkeypatch.setattr(lattice, "standard_algebra", perturbed)
    code = cli.main(["lattice", "--pseudo-h", "2", "1"])
    assert code != 0
    assert json.loads(capsys.readouterr().out)["error"] == "ERR_HOMOMORPHISM"


def test_pseudo_h_pipeline_pairs_the_generators_once(monkeypatch, capsys):
    real = exactlin.trace_pairing
    calls = []

    def counted(xs, ys):
        calls.append(1)
        return real(xs, ys)

    for name, module in list(sys.modules.items()):
        if name.startswith("nilforge") and getattr(module, "trace_pairing", None) is real:
            monkeypatch.setattr(module, "trace_pairing", counted)
    assert cli.main(["lattice", "--pseudo-h", "2", "1"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_build_module_rejects_a_failed_self_check(monkeypatch):
    real = clifford.verify_module
    monkeypatch.setattr(clifford, "verify_module", lambda m: {**real(m), "passed": False})
    with pytest.raises(HomomorphismError):
        clifford.build_module.__wrapped__(CliffordSignature(2, 1))


@pytest.mark.parametrize(
    "name, old, new, reason",
    mutants.MUTANTS,
    ids=[f"{i}-{entry[0]}" for i, entry in enumerate(mutants.MUTANTS)],
)
def test_mutant_text_occurs_once(name, old, new, reason):
    # a refactor that moves a listed check must update tests/mutants.py
    assert (SRC / name).is_file()
    counts = {p.name: p.read_text(encoding="utf-8").count(old) for p in SRC.rglob("*.py")}
    assert counts[name] == 1 and sum(counts.values()) == 1
    assert old != new and reason
