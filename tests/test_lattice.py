"""Rational structures and lattice verdicts for 2-step algebras."""

from fractions import Fraction

import pytest

from nilforge.catalog import heisenberg, n11, n20
from nilforge.errors import UnsupportedSignatureError
from nilforge.exactlin import MatrixSubspace, RationalMatrix, SignatureForm, eta, jsonify
from nilforge.lattice import (
    _brackets_integer,
    integer_rescale,
    lattice_verdict,
    pseudo_H_pipeline_report,
)
from nilforge.nilpotent import NilpotentAlgebra2


def _frac_algebra():
    c1 = RationalMatrix(((0, Fraction(1, 2)), (Fraction(-1, 2), 0)))
    c2 = RationalMatrix(((0, Fraction(-1, 3)), (Fraction(1, 3), 0)))
    return NilpotentAlgebra2(m=2, n=2, structure=(c1, c2), tag="raw")


def test_is_rational_basis():
    assert not n11().algebra.symbolic
    assert not heisenberg().algebra.symbolic
    symbolic = NilpotentAlgebra2(
        m=2,
        n=1,
        structure=(RationalMatrix(((0, 1), (-1, 0))),),
        symbolic=True,
    )
    assert symbolic.symbolic


def test_integer_rescale_lcm_arithmetic():
    d, rescaled = integer_rescale(_frac_algebra())
    assert d == 6
    assert rescaled.structure[0].entry(0, 1) == 3
    assert rescaled.structure[1].entry(0, 1) == -2


def test_integer_rescale_identity_on_integer_constants():
    a = n20().algebra
    d, rescaled = integer_rescale(a)
    assert d == 1
    assert rescaled.structure == a.structure


def test_integer_rescale_keeps_every_other_field():
    c = RationalMatrix(((0, Fraction(1, 2)), (Fraction(-1, 2), 0)))
    a = NilpotentAlgebra2(
        m=2,
        n=1,
        structure=(c,),
        form_V=SignatureForm(eta(1, 1)),
        form_Z=SignatureForm(RationalMatrix(((3,),))),
        tag="adapted",
        symbolic=True,
    )
    d, rescaled = integer_rescale(a)
    assert d == 2
    assert rescaled.structure == (c.scale(2),)
    assert (rescaled.m, rescaled.n) == (2, 1)
    assert rescaled.form_V == a.form_V and rescaled.form_Z == a.form_Z
    assert rescaled.tag == "adapted" and rescaled.symbolic
    # the adapted check ran again on the rescaled matrices
    assert rescaled.structure_span is not a.structure_span
    assert rescaled.structure_span.equals(MatrixSubspace(2, [c.scale(2)]))


def test_integer_rescale_minimality():
    d, _ = integer_rescale(_frac_algebra())
    # no smaller positive integer clears every denominator
    for smaller in range(1, d):
        cleared = all(
            (smaller * x).denominator == 1
            for c in _frac_algebra().structure
            for x in c.entries()
        )
        assert not cleared


def test_lattice_verdict_rational():
    v = lattice_verdict(_frac_algebra())
    assert v.status == "AdmitsLattice"
    assert v.rescale_factor == 6
    assert v.rescaled_constants_integer
    assert v.witness_basis == RationalMatrix.identity(4)


def test_lattice_verdict_abelian():
    abelian = NilpotentAlgebra2(m=3, n=0, structure=())
    v = lattice_verdict(abelian)
    assert v.status == "AdmitsLattice"
    assert v.rescale_factor == 1
    assert v.rescaled_constants_integer


def test_lattice_verdict_symbolic_unknown():
    symbolic = NilpotentAlgebra2(
        m=2,
        n=1,
        structure=(RationalMatrix(((0, 1), (-1, 0))),),
        symbolic=True,
    )
    v = lattice_verdict(symbolic)
    assert v.status == "Unknown"
    assert v.witness_basis is None


def test_verdict_json_is_the_dataclass_walk():
    # the object LatticeVerdict once wrote itself, field by field
    assert jsonify(lattice_verdict(_frac_algebra())) == {
        "status": "AdmitsLattice",
        "witness_basis": RationalMatrix.identity(4).to_json(),
        "rescale_factor": 6,
        "rescaled_constants_integer": True,
        "detail": "rational constants; d = 6 clears all denominators",
    }
    symbolic = NilpotentAlgebra2(
        m=2, n=1, structure=(RationalMatrix(((0, 1), (-1, 0))),), symbolic=True
    )
    assert jsonify(lattice_verdict(symbolic)) == {
        "status": "Unknown",
        "witness_basis": None,
        "rescale_factor": 1,
        "rescaled_constants_integer": False,
        "detail": "structure constants are defined only up to an unknown scale",
    }


def test_pseudo_H_lattice_witness_all_up_to_4():
    for total in range(1, 5):
        for r in range(total + 1):
            report = pseudo_H_pipeline_report(r, total - r)
            algebra, verdict = report["algebra"], report["verdict"]
            assert verdict.status == "AdmitsLattice"
            assert verdict.rescale_factor == 1
            assert verdict.rescaled_constants_integer
            assert all(
                x.denominator == 1 and abs(x.numerator) <= 1
                for c in algebra.structure
                for x in c.entries()
            )


def test_pipeline_trace_identity_and_gram():
    """-tr(J_{Z_i}^2) = 2l * nu_i and Gram(J) = 2l * eta_{r,s}.

    The square law J_{Z_i}^2 = -nu_i Id forces the trace value +2l nu_i
    (trace of nu_i Id on a 2l-dim space); the pipeline certifies exactly
    that, together with the Gram rescaling <J_Z, J_Z'> = 2l <Z, Z'>.
    """
    for r, s in ((1, 1), (2, 0), (0, 2), (2, 2)):
        rep = pseudo_H_pipeline_report(r, s)
        two_l = rep["two_l"]
        nus = [1] * r + [-1] * s
        assert rep["traces"] == [Fraction(two_l * nu) for nu in nus]
        assert rep["trace_identity"]
        assert rep["gram_is_2l_eta"]
        assert rep["standard_iso_certified"]
        assert rep["standard_rescale_divides_2l"]


def test_pipeline_standard_coincides_for_0_2():
    """The standard algebra over W = J(R^{0,2}) reproduces the n_{0,2}
    bracket up to the certified 1/(2l) center rescaling."""
    rep = pseudo_H_pipeline_report(0, 2)
    n_struct = rep["algebra"].structure
    std_struct = rep["standard_algebra"].algebra.structure
    for cn, cs in zip(n_struct, std_struct):
        assert cs == cn.scale(Fraction(1, rep["two_l"]))


def test_pipeline_respects_signature_cap():
    with pytest.raises(UnsupportedSignatureError):
        pseudo_H_pipeline_report(6, 3)


def test_brackets_integer_needs_a_factor_clearing_every_constant():
    c = RationalMatrix(((0, Fraction(1, 2), 1), (Fraction(-1, 2), 0, 0), (-1, 0, 0)))
    a = NilpotentAlgebra2(m=3, n=1, structure=(c,), tag="raw")
    for d in (1, 3):
        assert not _brackets_integer(a, d)
        assert _brackets_integer(a, 2 * d)
