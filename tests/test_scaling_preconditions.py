"""``scaling_isomorphism`` checks only what an input can fail.

Once two algebras share a J-image, the scaling operator S = G1^{-1} G2 is
symmetric for both forms and commutes with every J (the proof is in the
function's docstring), so the function no longer checks either.  Here those
facts are tested as properties, and the function is compared field by field
with a verbatim copy of the version that still checked them.
"""

from dataclasses import fields
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilforge.catalog import n02, n11, n20
from nilforge.errors import HomomorphismError, PreconditionError
from nilforge.exactlin import (
    RationalMatrix,
    SignatureForm,
    block_diag,
    char_poly,
    independent_subset,
    inverse,
    kernel_basis,
    rational_roots,
)
from nilforge.nilpotent import (
    MetricAlgebra,
    ScalingOutcome,
    _j_basis,
    algebra_from_J,
    scaling_isomorphism,
)
from helpers import _form
from test_input_rejections import ROT, ROT3, _metric

PROPS = settings(max_examples=40, deadline=None, derandomize=True)


def _rational_sqrt(x: Fraction) -> Fraction | None:
    """The square-root helper of the version below, negative branch included."""
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _parent_scaling_isomorphism(
    a1: MetricAlgebra, a2: MetricAlgebra, witness_vectors=()
) -> ScalingOutcome:
    """Compare two metric algebras sharing the same J-image via the scaling
    operator S defined by <v, w>_2 = <S v, w>_1.

    Preconditions (checked): equal dimensions, equal J-image span, S
    symmetric w.r.t. both forms and commuting with every J_z, and matching
    causal type on the rational eigenvectors of S plus any supplied witness
    vectors.
    """
    if a1.m != a2.m or a1.n != a2.n:
        raise PreconditionError("algebra dimensions differ")
    m = a1.m
    js1 = _j_basis(a1)
    js2 = _j_basis(a2)
    if not independent_subset(m, js1).equals(independent_subset(m, js2)):
        raise PreconditionError("the two algebras do not share a J-image")
    g1, g2 = a1.form_V.matrix, a2.form_V.matrix
    s = a1.form_V.inverse_matrix() * g2
    if s.transpose() * g1 != g1 * s or s.transpose() * g2 != g2 * s:
        raise PreconditionError("scaling operator fails symmetry")
    if any(s * j != j * s for j in js1 + js2):
        raise PreconditionError("scaling operator fails commutation with J")
    cp = char_poly(s)
    roots, remainder = rational_roots(cp)
    eigvecs = []
    diagonalizable = remainder == 0
    if diagonalizable:
        total = 0
        for lam, _mult in sorted(roots.items()):
            ker = kernel_basis(s - RationalMatrix.identity(m).scale(lam))
            total += len(ker)
            eigvecs.extend((lam, v) for v in ker)
        diagonalizable = total == m
    for v in list(witness_vectors) + [v for _, v in eigvecs]:
        s1 = a1.form_V.pair(v, v)
        s2 = a2.form_V.pair(v, v)
        if (s1 > 0) != (s2 > 0) or (s1 < 0) != (s2 < 0):
            raise PreconditionError("metrics disagree in causal type on a witness")
    sqrts = {lam: _rational_sqrt(lam) for lam in roots}
    if not diagonalizable or any(r is None for r in sqrts.values()):
        return ScalingOutcome("irrational-scaling", s, tuple(cp))
    # phi_V acts as sqrt(lambda) on each eigenspace
    b = RationalMatrix([v for _, v in eigvecs]).transpose()
    phi_v = b * RationalMatrix.diag([sqrts[lam] for lam, _ in eigvecs]) * inverse(b)
    for sign, status in ((1, "isometry"), (-1, "anti-isometry")):
        ok = all(
            phi_v.transpose() * c1 * phi_v == c2.scale(sign)
            for c1, c2 in zip(a1.structure, a2.structure)
        )
        if ok:
            return ScalingOutcome(status, s, tuple(cp), phi_v, sign, True)
    raise HomomorphismError("neither isometry variant certifies; convention bug")


BASES = {"n20": n20, "n11": n11, "n02": n02}
FACTORS = [Fraction(4), Fraction(9, 4), Fraction(2), Fraction(1, 9)]


def _rescaled(a1, factor, negate):
    """a1's own J's (negated if asked) over G_V scaled by ``factor``."""
    js = [-j if negate else j for j in _j_basis(a1)]
    return MetricAlgebra(algebra_from_J(js, a1.form_V.scaled(factor), a1.form_Z))


def _blocks(a, b):
    """V = R^4 with J_1 = diag(R, R) and J_2 = diag(R, -R), R the plane
    rotation, over G_V = diag(a, a, -b, -b): S is not scalar when a != b."""
    js = [block_diag(ROT, ROT), block_diag(ROT, -ROT)]
    form_v = SignatureForm(RationalMatrix.diag([a, a, -b, -b]))
    return MetricAlgebra(algebra_from_J(js, form_v, SignatureForm.standard(2, 0)))


def _assert_deleted_checks_hold(a1, a2):
    m = a1.m
    js1, js2 = _j_basis(a1), _j_basis(a2)
    # the hypothesis of the argument: the J-image check passes
    assert independent_subset(m, js1).equals(independent_subset(m, js2))
    g1, g2 = a1.form_V.matrix, a2.form_V.matrix
    s = a1.form_V.inverse_matrix() * g2
    assert s.transpose() * g1 == g1 * s
    assert s.transpose() * g2 == g2 * s
    assert all(s * j == j * s for j in js1 + js2)


def _outcome(scaling, a1, a2):
    try:
        return scaling(a1, a2)
    except (PreconditionError, HomomorphismError) as caught:
        return type(caught)


def _assert_same_outcome(a1, a2):
    new = _outcome(scaling_isomorphism, a1, a2)
    old = _outcome(_parent_scaling_isomorphism, a1, a2)
    if isinstance(old, type):
        assert new is old
        return new
    assert isinstance(new, ScalingOutcome)
    for f in fields(ScalingOutcome):
        assert getattr(new, f.name) == getattr(old, f.name), f.name
    return new.status


@pytest.mark.parametrize("negate", [False, True])
@pytest.mark.parametrize("factor", FACTORS, ids=str)
@pytest.mark.parametrize("name", sorted(BASES))
def test_deleted_checks_hold_on_the_catalog(name, factor, negate):
    a1 = BASES[name]()
    _assert_deleted_checks_hold(a1, _rescaled(a1, factor, negate))


@pytest.mark.parametrize("negate", [False, True])
@pytest.mark.parametrize("factor", FACTORS, ids=str)
@pytest.mark.parametrize("name", sorted(BASES))
def test_same_outcome_as_the_parent_on_the_catalog(name, factor, negate):
    a1 = BASES[name]()
    status = _assert_same_outcome(a1, _rescaled(a1, factor, negate))
    if factor == 2:
        assert status == "irrational-scaling"
    else:
        assert status == ("anti-isometry" if negate else "isometry")


def test_block_scaling_is_a_non_scalar_isometry():
    out = scaling_isomorphism(_blocks(1, 1), _blocks(1, 4))
    assert out.status == "isometry" and out.certified
    assert out.phi_V == RationalMatrix.diag([1, 1, 2, 2])
    assert _assert_same_outcome(_blocks(1, 1), _blocks(1, 4)) == "isometry"


nonzero = st.builds(Fraction, st.integers(-12, 12).filter(bool), st.integers(1, 12))


@PROPS
@given(name=st.sampled_from(sorted(BASES)), factor=nonzero, negate=st.booleans())
def test_catalog_rescalings(name, factor, negate):
    a1 = BASES[name]()
    a2 = _rescaled(a1, factor, negate)
    _assert_deleted_checks_hold(a1, a2)
    _assert_same_outcome(a1, a2)


@PROPS
@given(a=nonzero, b=nonzero, c=nonzero, d=nonzero)
def test_block_rescalings(a, b, c, d):
    a1, a2 = _blocks(a, b), _blocks(c, d)
    _assert_deleted_checks_hold(a1, a2)
    _assert_same_outcome(a1, a2)


SCALING_INPUTS = {
    "scaling-dimensions": (_metric(_form(1, 1)), _metric(_form(1, 1, 1), (ROT3,))),
    "scaling-J-image": (_metric(_form(1, 1)), _metric(_form(1, 2), (ROT.scale(2),))),
    "scaling-causal-type": (_metric(_form(1, 1)), _metric(_form(-1, -1))),
}


@pytest.mark.parametrize("case", sorted(SCALING_INPUTS))
def test_rejections_match_the_parent(case):
    assert _assert_same_outcome(*SCALING_INPUTS[case]) is PreconditionError


def test_no_witness_vectors_parameter():
    with pytest.raises(TypeError):
        scaling_isomorphism(n20(), n20(), ())
