"""Input rejections that no other test reaches, one parametrized test per
module: each case must raise its error class, and carry that class's stable
``code``.  A few paths that were never run ride along: the zero-root strip of
``rational_roots``, the JSON of a symbolic algebra and the exit status 1 of
``lattice FILE``.
"""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from nilforge import cli, lattice
from nilforge.errors import (
    BadInputError,
    DegenerateFormError,
    DegenerateRestrictionError,
    DimError,
    DimensionMismatchError,
    NotAdaptedError,
    PreconditionError,
)
from nilforge.exactlin import (
    MatrixSubspace,
    RationalMatrix,
    SignatureForm,
    char_poly,
    commutator,
    rational_roots,
    solve,
)
from nilforge.nilpotent import (
    MetricAlgebra,
    NilpotentAlgebra2,
    abelian_factor,
    algebra_from_J,
    bracket,
    h_type_laws,
    scaling_isomorphism,
)
from nilforge.standardform import (
    apply_free_automorphism,
    eta_twist,
    free_algebra,
    quotient_by_center_subspace,
    reduction_isomorphism,
    so_basis,
    standard_algebra,
)

from helpers import _form

I2, I3 = RationalMatrix.identity(2), RationalMatrix.identity(3)
ROT = RationalMatrix([[0, 1], [-1, 0]])  # E12 - E21, antisymmetric
ROT3 = RationalMatrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
ZERO2 = RationalMatrix.zeros(2, 2)


def _metric(form_v, structure=(ROT,), form_z=None, tag="adapted"):
    n = len(structure)
    algebra = NilpotentAlgebra2(
        m=form_v.dim,
        n=n,
        structure=tuple(structure),
        form_V=form_v,
        form_Z=form_z or _form(*[1] * n),
        tag=tag,
    )
    return MetricAlgebra(algebra)


def _check(build, error):
    with pytest.raises(error) as caught:
        build()
    assert caught.value.code == error.code


EXACTLIN = {
    "ragged-rows": (lambda: RationalMatrix([[1, 2], [3]]), DimensionMismatchError),
    "apply-length": (lambda: I2.apply([1, 2, 3]), DimensionMismatchError),
    "trace-non-square": (lambda: RationalMatrix([[1, 2]]).trace(), DimensionMismatchError),
    "add-shapes": (lambda: I2 + I3, DimensionMismatchError),
    "sub-shapes": (lambda: I2 - I3, DimensionMismatchError),
    "commutator-shapes": (lambda: commutator(I2, I3), DimensionMismatchError),
    "solve-non-square": (lambda: solve(RationalMatrix([[1, 2]]), [1]), DimensionMismatchError),
    "solve-rhs-length": (lambda: solve(I2, [1]), DimensionMismatchError),
    "char-poly-non-square": (lambda: char_poly(RationalMatrix([[1, 2]])), DimensionMismatchError),
    "adjoin-shape": (lambda: MatrixSubspace(2).adjoin(I3), DimensionMismatchError),
}


@pytest.mark.parametrize("case", sorted(EXACTLIN))
def test_exactlin_rejects(case):
    _check(*EXACTLIN[case])


def _structure_count():
    NilpotentAlgebra2(m=2, n=1, structure=())


def _dependent_c_for_a_hyperbolic_z():
    # [g, g] = span{z_1}, on which the hyperbolic G_Z vanishes
    hyperbolic = SignatureForm(RationalMatrix([[0, 1], [1, 0]]))
    abelian_factor(_metric(_form(1, 1), (ROT, ZERO2), hyperbolic, tag="raw"))


def _j_images_differ():
    # J = -G_V^{-1} C: -ROT against -diag(1, 1/2) 2 ROT, not proportional
    other = _metric(_form(1, 2), (ROT.scale(2),))
    scaling_isomorphism(_metric(_form(1, 1)), other)


NILPOTENT = {
    "structure-count": (_structure_count, DimensionMismatchError),
    "structure-shape": (
        lambda: NilpotentAlgebra2(m=2, n=1, structure=(RationalMatrix.zeros(3, 3),)),
        DimensionMismatchError,
    ),
    "form-V-size": (
        lambda: NilpotentAlgebra2(m=2, n=0, structure=(), form_V=_form(1, 1, 1)),
        DimensionMismatchError,
    ),
    "form-Z-size": (
        lambda: NilpotentAlgebra2(m=2, n=0, structure=(), form_Z=_form(1)),
        DimensionMismatchError,
    ),
    "unknown-tag": (
        lambda: NilpotentAlgebra2(m=2, n=1, structure=(ROT,), tag="weird"),
        BadInputError,
    ),
    "metric-degenerate-V": (lambda: _metric(_form(1, 0)), DegenerateFormError),
    "metric-degenerate-Z": (lambda: _metric(_form(1, 1), form_z=_form(0)), DegenerateFormError),
    "bracket-length": (
        lambda: bracket(_metric(_form(1, 1)).algebra, (1, 0), (0, 1, 0)),
        DimensionMismatchError,
    ),
    "from-J-degenerate": (
        lambda: algebra_from_J([ROT], _form(1, 0), _form(1)),
        DegenerateFormError,
    ),
    "from-J-count": (
        lambda: algebra_from_J([ROT, ROT], _form(1, 1), _form(1)),
        DimensionMismatchError,
    ),
    "abelian-factor-restriction": (_dependent_c_for_a_hyperbolic_z, DegenerateRestrictionError),
    "h-type-G-Z-size": (lambda: h_type_laws([I2], I2, I2), DimensionMismatchError),
    "scaling-dimensions": (
        lambda: scaling_isomorphism(_metric(_form(1, 1)), _metric(_form(1, 1, 1), (ROT3,))),
        PreconditionError,
    ),
    "scaling-J-image": (_j_images_differ, PreconditionError),
    "scaling-causal-type": (
        # G_V = -I turns J into -J, the same image, and every vector's sign
        lambda: scaling_isomorphism(_metric(_form(1, 1)), _metric(_form(-1, -1))),
        PreconditionError,
    ),
}


@pytest.mark.parametrize("case", sorted(NILPOTENT))
def test_nilpotent_rejects(case):
    _check(*NILPOTENT[case])


def _raw_reduction():
    raw = NilpotentAlgebra2(m=2, n=1, structure=(ZERO2,))
    reduction_isomorphism(raw, 1, 1)


def _k_outside_w():
    f = free_algebra(2, 1)
    outside = MatrixSubspace(3, [RationalMatrix.identity(3)])  # I is not in so(2,1)
    quotient_by_center_subspace(f, outside)


STANDARDFORM = {
    "twist-ambient": (lambda: eta_twist(MatrixSubspace(3), 1, 1), DimError),
    "twist-side": (lambda: eta_twist(MatrixSubspace(2), 1, 1, "up"), PreconditionError),
    "standard-ambient": (lambda: standard_algebra(1, 1, so_basis(2, 1)), DimError),
    "reduction-raw": (_raw_reduction, NotAdaptedError),
    "free-automorphism-S-hom-count": (
        lambda: apply_free_automorphism(2, 1, I3, [], ((1, 0, 0), None)),
        DimensionMismatchError,
    ),
    "quotient-K-outside-W": (_k_outside_w, PreconditionError),
}


@pytest.mark.parametrize("case", sorted(STANDARDFORM))
def test_standardform_rejects(case):
    _check(*STANDARDFORM[case])


def test_zero_roots_are_stripped_first():
    # x^4 - x^3 = x^3 (x - 1)
    one = Fraction(1)
    assert rational_roots([one, -one, 0 * one, 0 * one, 0 * one]) == ({0: 3, 1: 1}, 0)


def test_a_symbolic_algebra_says_so_in_its_json():
    a = NilpotentAlgebra2(m=2, n=1, structure=(ROT,), symbolic=True)
    obj = a.to_json()
    assert obj["symbolic"] is True
    assert NilpotentAlgebra2.from_json(obj) == a


def test_lattice_file_exits_1_when_the_rescaled_constants_are_not_integer(tmp_path, monkeypatch):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(_metric(_form(1, 1)).algebra.to_json()))
    monkeypatch.setattr(lattice, "_brackets_integer", lambda a, d: False)
    with redirect_stdout(io.StringIO()) as out:
        code = cli.main(["lattice", str(path)])
    verdict = json.loads(out.getvalue())
    assert code == 1
    assert verdict["status"] == "AdmitsLattice" and not verdict["rescaled_constants_integer"]
