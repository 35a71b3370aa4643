"""Clifford module construction and certification.

The 2x2 base cases are checked against an exhaustive search over all
matrices with entries in {-1,0,1} (a complete oracle at that size), and
the 4x4 base cases against the worked permutation-rule matrices.
"""

import itertools
import random

import pytest

from nilforge.clifford import (
    CliffordModule,
    CliffordSignature,
    build_module,
    verify_module,
)
from nilforge.errors import BadInputError, DimensionMismatchError, UnsupportedSignatureError
from nilforge.exactlin import RationalMatrix, eta
from nilforge.lattice import pseudo_H_algebra
from nilforge.nilpotent import j_map


def _laws(j_mats, form, nus):
    """The three certifiable laws for a generator family: skew-symmetry,
    orthogonality, square law."""
    e = form
    n = j_mats[0].rows
    ident = RationalMatrix.identity(n)
    skew = all(e * j.transpose() * e == -j for j in j_mats)
    orth = all(
        j.transpose() * e * j == e.scale(nu) for j, nu in zip(j_mats, nus)
    )
    square = all(j * j == ident.scale(-nu) for j, nu in zip(j_mats, nus))
    return skew, orth, square


def test_exhaustive_2x2_positive_generator():
    """All 2x2 integer solutions for (r,s)=(1,0): exactly +-Q."""
    q = RationalMatrix(((0, -1), (1, 0)))
    found = []
    for entries in itertools.product((-1, 0, 1), repeat=4):
        j = RationalMatrix((entries[:2], entries[2:]))
        skew, orth, square = _laws([j], RationalMatrix.identity(2), [1])
        if skew and orth and square:
            found.append(j)
    assert found == [q.scale(-1), q] or found == [q, q.scale(-1)]
    assert build_module(CliffordSignature(1, 0)).generators[0] in found


def test_exhaustive_2x2_negative_generator():
    """All 2x2 integer solutions for (r,s)=(0,1): exactly +-P."""
    p = RationalMatrix(((0, 1), (1, 0)))
    found = []
    for entries in itertools.product((-1, 0, 1), repeat=4):
        j = RationalMatrix((entries[:2], entries[2:]))
        skew, orth, square = _laws([j], eta(1, 1), [-1])
        if skew and orth and square:
            found.append(j)
    assert sorted(found, key=lambda m: m.entry(0, 1)) == [p.scale(-1), p]
    assert build_module(CliffordSignature(0, 1)).generators[0] in found


def test_base_generators_match_worked_examples():
    """4x4 generators agree with the permutation-rule matrices of the
    worked 4+2-dimensional examples."""
    j20 = (
        RationalMatrix(((0, 0, -1, 0), (0, 0, 0, -1), (1, 0, 0, 0), (0, 1, 0, 0))),
        RationalMatrix(((0, 0, 0, -1), (0, 0, 1, 0), (0, -1, 0, 0), (1, 0, 0, 0))),
    )
    j11 = (
        RationalMatrix(((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))),
        RationalMatrix(((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))),
    )
    j02 = (
        RationalMatrix(((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))),
        RationalMatrix(((0, 0, 0, 1), (0, 0, -1, 0), (0, -1, 0, 0), (1, 0, 0, 0))),
    )
    assert build_module(CliffordSignature(2, 0)).generators == j20
    assert build_module(CliffordSignature(1, 1)).generators == j11
    assert build_module(CliffordSignature(0, 2)).generators == j02


def test_build_and_verify_all_signatures_up_to_6():
    for total in range(1, 7):
        for r in range(total + 1):
            sig = CliffordSignature(r, total - r)
            module = build_module(sig)
            report = verify_module(module)
            assert report["passed"], (r, total - r, report["checks"])
            assert module.module_dim == 2 ** max(total, 1)
            assert all(
                x.denominator == 1 and abs(x.numerator) <= 1
                for g in module.generators
                for x in g.entries()
            )
            form = module.module_form
            if sig.s > 0:
                assert (form.p, form.q) == (module.module_dim // 2, module.module_dim // 2)
            else:
                assert (form.p, form.q) == (module.module_dim, 0)


def test_signature_cap():
    with pytest.raises(UnsupportedSignatureError):
        build_module(CliffordSignature(5, 4))
    with pytest.raises(UnsupportedSignatureError):
        CliffordSignature(-1, 2)


def test_two_of_three_never_holds_for_tampered_generators():
    """Any two of {skew, orthogonality, square law} imply the third, so no
    tampering can make exactly two pass."""
    rng = random.Random(2024)
    for total in range(1, 5):
        for r in range(total + 1):
            module = build_module(CliffordSignature(r, total - r))
            nus = [module.signature.nu(i + 1) for i in range(total)]
            form = module.module_form.matrix
            n = module.module_dim
            for _ in range(25):
                gens = list(module.generators)
                idx = rng.randrange(len(gens))
                i, j = rng.randrange(n), rng.randrange(n)
                rows = [list(row) for row in (gens[idx].row(t) for t in range(n))]
                rows[i][j] += rng.choice((-1, 1))
                gens[idx] = RationalMatrix(rows)
                laws = _laws(gens, form, nus)
                assert list(laws).count(True) != 2, (r, total - r, laws)
                tampered = CliffordModule(
                    module.signature, n, module.module_form, tuple(gens)
                )
                checks = verify_module(tampered)["checks"]
                assert (
                    checks["admissible_skew"],
                    checks["orthogonality"],
                    checks["square_law"],
                ) == laws


def test_verify_module_reports_wrong_generator_count():
    module = build_module(CliffordSignature(2, 1))
    extra = CliffordModule(
        signature=CliffordSignature(2, 0),
        module_dim=module.module_dim,
        module_form=module.module_form,
        generators=module.generators,
    )
    report = verify_module(extra)
    assert report["checks"]["generator_count"] is False
    assert not report["passed"]


def test_verify_module_flags_broken_module():
    module = build_module(CliffordSignature(1, 1))
    bad = CliffordModule(
        signature=module.signature,
        module_dim=module.module_dim,
        module_form=module.module_form,
        generators=(module.generators[0], module.generators[0]),
    )
    report = verify_module(bad)
    assert not report["passed"]
    assert not report["checks"]["anticommutation"]


def test_extend_J_linear():
    module = build_module(CliffordSignature(2, 1))
    j1, j2, j3 = module.generators
    assert j_map(pseudo_H_algebra(module), [1, -2, 3]) == j1 - j2.scale(2) + j3.scale(3)
    with pytest.raises(DimensionMismatchError):
        j_map(pseudo_H_algebra(module), [1, 2])


def test_module_json_round_trip():
    module = build_module(CliffordSignature(2, 2))
    again = CliffordModule.from_json(module.to_json())
    assert again.generators == module.generators
    assert again.module_form == module.module_form
    assert verify_module(again)["passed"]


def test_module_from_json_rejects_malformed_objects():
    good = build_module(CliffordSignature(1, 1)).to_json()
    malformed = [
        {"r": 1},
        {**good, "eta": 3},
        {**good, "generators": [{"rows": 2}]},
        {key: v for key, v in good.items() if key != "N"},
        [1, 1],
    ]
    for obj in malformed:
        with pytest.raises(BadInputError):
            CliffordModule.from_json(obj)


def test_construction_path_recorded():
    module = build_module(CliffordSignature(3, 2))
    path = list(module.construction_path)
    assert path[0].startswith("base(")
    assert path.count("add_r") + path.count("add_s") == len(path) - 1


def test_from_json_rejects_eta_as_text():
    # "11" iterates as the characters "1", "1": it is not diag(1, 1)
    obj = build_module(CliffordSignature(1, 0)).to_json()
    assert obj["eta"] == [1, 1]
    with pytest.raises(BadInputError):
        CliffordModule.from_json({**obj, "eta": "11"})
