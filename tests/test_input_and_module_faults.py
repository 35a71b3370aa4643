"""Wrong input is refused before any work, and ``verify_module`` reports the
keys a broken module fails.

The module cases assert the keys themselves, not only ``passed``: a module
that fails some other law would not pass anyway, so ``passed`` alone cannot
tell a working ``two_of_three`` or ``integer_entries`` key from ``True``.
"""

import json

import pytest

from nilforge import cli
from nilforge.catalog import n20
from nilforge.clifford import CliffordModule, CliffordSignature, build_module, verify_module
from nilforge.errors import BadInputError, HomomorphismError
from nilforge.exactlin import RationalMatrix
from nilforge.standardform import apply_free_automorphism, in_so, so_basis

# ---------------------------------------------------------------------------
# lattice FILE --pseudo-h R S


def test_lattice_rejects_a_file_and_pseudo_h_together(tmp_path, capsys, monkeypatch):
    path = tmp_path / "n20.json"
    cli.save_algebra(n20().algebra, str(path))
    ran = []
    for name in ("load_algebra", "lattice_verdict", "pseudo_H_pipeline_report"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: ran.append(name))
    code = cli.main(["lattice", str(path), "--pseudo-h", "1", "1"])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"] == BadInputError.code
    assert ran == []


# ---------------------------------------------------------------------------
# a module's eta is a list of 1 and -1


def test_module_eta_must_be_plus_or_minus_one():
    good = {"r": 1, "s": 0, "N": 3, "eta": [1, -1, 1], "generators": []}
    assert CliffordModule.from_json(good).module_form.matrix == RationalMatrix.diag([1, -1, 1])
    for eta in (["-3/2", "1/2", 2], [1, 2, 1], [1, 0, 1], ["1", -1, 1], [True, -1, 1],
                [1.0, -1, 1], [1, -1, None], [[1], -1, 1], {"1": 1}):
        with pytest.raises(BadInputError, match="eta"):
            CliffordModule.from_json({**good, "eta": eta})


# ---------------------------------------------------------------------------
# apply_free_automorphism: the center part of x lies in so(p, q)


def test_free_automorphism_rejects_a_center_part_outside_so():
    p, q = 2, 1
    ident = RationalMatrix.identity(3)
    zero = RationalMatrix.zeros(3, 3)
    assert not in_so(ident, p, q)
    with pytest.raises(HomomorphismError, match="center part"):
        apply_free_automorphism(p, q, ident, [zero] * 3, ((1, 2, 3), ident))
    # a center part in so(p, q), or none, is mapped
    phi = so_basis(p, q).basis[1]
    assert apply_free_automorphism(p, q, ident, [zero] * 3, ((1, 2, 3), phi)) == ((1, 2, 3), phi)
    assert apply_free_automorphism(p, q, ident, [zero] * 3, ((1, 2, 3), None))[1] == zero


# ---------------------------------------------------------------------------
# verify_module keys


def _module_with(sig: CliffordSignature, generators) -> CliffordModule:
    built = build_module(sig)
    return CliffordModule(sig, built.module_dim, built.module_form, tuple(generators))


def test_repeated_generator_fails_two_of_three():
    # (J_1, J_1): each squares to -I and is skew, but J_1 J_1 + J_1 J_1 = -2 I
    # and J_1^T G J_1 + J_1^T G J_1 = 2 G, so exactly two of skew, orthogonality
    # and square law hold
    sig = CliffordSignature(2, 0)
    j1 = build_module(sig).generators[0]
    checks = verify_module(_module_with(sig, (j1, j1)))["checks"]
    assert checks["admissible_skew"] is True
    assert checks["square_law"] is True
    assert checks["anticommutation"] is False
    assert checks["orthogonality"] is False
    assert checks["two_of_three"] is False
    assert checks["integer_entries"] is True


def test_scaled_generator_fails_integer_entries():
    sig = CliffordSignature(2, 0)
    j1, j2 = build_module(sig).generators
    checks = verify_module(_module_with(sig, (j1, j2.scale(2))))["checks"]
    assert checks["integer_entries"] is False
    assert checks["admissible_skew"] is True
    assert checks["square_law"] is False  # (2 J_2)^2 = -4 I
