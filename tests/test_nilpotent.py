"""2-step algebras, the J-map duality, pseudo H-type certification, and
metric-rescaling comparisons."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilforge.catalog import heisenberg, n02, n11, n20
from nilforge.clifford import CliffordSignature, build_module
from nilforge.errors import (
    DegenerateFormError,
    HomomorphismError,
    NotAntisymmetricError,
    NotSkewError,
    PreconditionError,
)
from nilforge.exactlin import MatrixSubspace, RationalMatrix, SignatureForm, eta, rat, rat_to_str
from nilforge.nilpotent import (
    MetricAlgebra,
    NilpotentAlgebra2,
    abelian_factor,
    algebra_from_J,
    bracket,
    derived_ideal,
    is_pseudo_H_type,
    j_map,
    scaling_isomorphism,
)
from nilforge.standardform import free_algebra

from helpers import _unit, random_adapted_algebra


# ---------------------------------------------------------------------------
# J-map goldens for the worked 4+2-dimensional algebras


def test_j_map_sign_relations_n20():
    ma = n20()
    j = [j_map(ma, _unit(2, k)) for k in range(2)]
    # definite case: C^i = -J_{z_i}
    assert ma.structure[0] == -j[0]
    assert ma.structure[1] == -j[1]


def test_j_map_sign_relations_n11():
    ma = n11()
    j = [j_map(ma, _unit(2, k)) for k in range(2)]
    e = eta(2, 2)
    assert ma.structure[0] == -(e * j[0])
    assert ma.structure[1] == e * j[1]


def test_j_map_sign_relations_n02():
    ma = n02()
    j = [j_map(ma, _unit(2, k)) for k in range(2)]
    e = eta(2, 2)
    assert ma.structure[0] == e * j[0]
    assert ma.structure[1] == e * j[1]


def test_j_map_recovers_module_generators():
    for total in range(1, 5):
        for r in range(total + 1):
            module = build_module(CliffordSignature(r, total - r))
            from nilforge.lattice import pseudo_H_algebra

            ma = pseudo_H_algebra(module)
            for k, gen in enumerate(module.generators):
                assert j_map(ma, _unit(total, k)) == gen


def test_duality_defining_identity():
    """<J_z v, w>_V = <z, [v,w]>_Z on random vectors for random algebras."""
    rng = random.Random(42)
    for _ in range(40):
        ma = random_adapted_algebra(rng)
        m, n = ma.m, ma.n
        z = [rat(rng.randint(-3, 3)) for _ in range(n)]
        v = [rat(rng.randint(-3, 3)) for _ in range(m)]
        w = [rat(rng.randint(-3, 3)) for _ in range(m)]
        jz = j_map(ma, z)
        lhs = ma.form_V.pair(jz.apply(v), w)
        vw = bracket(ma.algebra, list(v) + [0] * n, list(w) + [0] * n)
        rhs = ma.form_Z.pair(z, vw[m:])
        assert lhs == rhs


def test_duality_round_trip_j_then_algebra():
    """algebra_from_J after j_map reproduces the structure tensor."""
    rng = random.Random(100)
    instances = [n20(), n11(), n02(), heisenberg()] + [
        random_adapted_algebra(rng) for _ in range(20)
    ]
    for ma in instances:
        js = [j_map(ma, _unit(ma.n, k)) for k in range(ma.n)]
        rebuilt = algebra_from_J(js, ma.form_V, ma.form_Z)
        assert rebuilt.structure == ma.structure


# ---------------------------------------------------------------------------
# bracket laws


_small = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 1, 2, 3]))


@st.composite
def _bracket_inputs(draw):
    """A raw algebra and two vectors; each V or centre part is either zero
    or drawn, so sparse and empty parts both occur."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 3))
    structure = []
    for _ in range(n):
        c = [[Fraction(0)] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                c[i][j] = draw(_small)
                c[j][i] = -c[i][j]
        structure.append(RationalMatrix(c))
    a = NilpotentAlgebra2(m=m, n=n, structure=tuple(structure))

    def vector():
        parts = [
            draw(st.lists(_small, min_size=size, max_size=size))
            if draw(st.booleans()) else [Fraction(0)] * size
            for size in (m, n)
        ]
        return parts[0] + parts[1]

    return a, vector(), vector()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_bracket_inputs())
def test_bracket_matches_nested_loop_reference(case):
    a, x, y = case
    ref = [Fraction(0)] * a.m + [
        sum(
            (x[i] * c.entry(i, j) * y[j] for i in range(a.m) for j in range(a.m)),
            Fraction(0),
        )
        for c in a.structure
    ]
    assert list(bracket(a, x, y)) == ref


def test_bracket_antisymmetry_and_jacobi_100_random():
    rng = random.Random(31415)
    for _ in range(100):
        ma = random_adapted_algebra(rng)
        dim = ma.m + ma.n
        x, y, z = (
            [rat(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(3)
        )
        a = ma.algebra
        xy = bracket(a, x, y)
        assert list(xy) == [-t for t in bracket(a, y, x)]
        # 2-step: all double brackets vanish, so Jacobi is three zero terms
        jacobi = [
            sum(t)
            for t in zip(
                bracket(a, x, bracket(a, y, z)),
                bracket(a, y, bracket(a, z, x)),
                bracket(a, z, bracket(a, x, y)),
            )
        ]
        assert all(t == 0 for t in jacobi)
        assert all(t == 0 for t in bracket(a, x, bracket(a, x, y)))


def test_center_is_in_bracket_kernel():
    ma = n11()
    x = [1, 2, 3, 4, 0, 0]
    z = [0, 0, 0, 0, 1, -1]
    assert all(t == 0 for t in bracket(ma.algebra, z, x))


# ---------------------------------------------------------------------------
# algebra validation and serialization


def test_antisymmetry_enforced():
    bad = RationalMatrix(((0, 1), (1, 0)))
    with pytest.raises(NotAntisymmetricError):
        NilpotentAlgebra2(m=2, n=1, structure=(bad,))


def test_metric_algebra_requires_nondegenerate_forms():
    c = RationalMatrix(((0, 1), (-1, 0)))
    degenerate = SignatureForm(RationalMatrix.zeros(1, 1))
    a = NilpotentAlgebra2(
        m=2, n=1, structure=(c,), form_V=SignatureForm.standard(2, 0), form_Z=degenerate
    )
    with pytest.raises(DegenerateFormError):
        MetricAlgebra(a)


def test_algebra_from_J_rejects_non_skew():
    not_skew = RationalMatrix(((1, 0), (0, 1)))
    with pytest.raises(NotSkewError):
        algebra_from_J(
            [not_skew], SignatureForm.standard(2, 0), SignatureForm.standard(1, 0)
        )


def test_algebra_json_round_trip():
    rng = random.Random(8)
    for _ in range(10):
        a = random_adapted_algebra(rng).algebra
        again = NilpotentAlgebra2.from_json(a.to_json())
        assert again == a


# ---------------------------------------------------------------------------
# derived ideal / abelian factor


def test_derived_ideal_full_for_pseudo_H():
    assert len(derived_ideal(n20().algebra)) == 2
    assert len(derived_ideal(heisenberg().algebra)) == 1


def test_abelian_factor_splits_padded_center():
    c1 = RationalMatrix(((0, 1), (-1, 0)))
    c2 = RationalMatrix.zeros(2, 2)
    a = NilpotentAlgebra2(
        m=2,
        n=2,
        structure=(c1, c2),
        form_V=SignatureForm.standard(2, 0),
        form_Z=SignatureForm.standard(2, 0),
        tag="raw",
    )
    g_star, abelian_dim = abelian_factor(MetricAlgebra(a))
    assert abelian_dim == 1
    assert g_star.n == 1
    assert g_star.structure[0] == c1


def test_abelian_factor_keeps_form_V_and_symbolic():
    c1 = RationalMatrix(((0, 1), (-1, 0)))
    form_v = SignatureForm(RationalMatrix(((2, 0), (0, -1))))
    a = NilpotentAlgebra2(
        m=2,
        n=2,
        structure=(c1, c1.scale(2)),
        form_V=form_v,
        form_Z=SignatureForm.standard(1, 1),
        tag="raw",
        symbolic=True,
    )
    g_star, abelian_dim = abelian_factor(MetricAlgebra(a))
    assert (g_star.m, g_star.n, abelian_dim) == (2, 1, 1)
    assert g_star.form_V == form_v
    # the derived ideal is spanned by (1, 2), of square 1 - 4 = -3
    assert g_star.form_Z == SignatureForm(RationalMatrix(((-3,),)))
    assert g_star.tag == "adapted" and g_star.symbolic
    assert g_star.structure_span.equals(MatrixSubspace(2, [c1]))


# ---------------------------------------------------------------------------
# pseudo H-type certification


def test_pseudo_H_verdicts():
    for ma in (n20(), n11(), n02(), heisenberg()):
        report = is_pseudo_H_type(ma)
        assert report["verdict"], report
        assert report["checks"]["two_of_three"]


def test_pseudo_H_fails_for_generic_algebra():
    # one symplectic generator on R^4 squares to a rank-deficient -J^2
    c = RationalMatrix(((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)))
    a = MetricAlgebra(
        NilpotentAlgebra2(
            m=4,
            n=1,
            structure=(c,),
            form_V=SignatureForm.standard(4, 0),
            form_Z=SignatureForm.standard(1, 0),
            tag="adapted",
        )
    )
    report = is_pseudo_H_type(a)
    assert not report["verdict"]
    assert report["checks"]["two_of_three"]


# ---------------------------------------------------------------------------
# rescaling and the scaling isomorphism


def _scaled_variant(ma, factor):
    js = [j_map(ma, _unit(ma.n, k)) for k in range(ma.n)]
    return algebra_from_J(js, ma.form_V.scaled(factor), ma.form_Z)


def test_scaling_isomorphism_square_factor():
    a1 = n20()
    a2 = _scaled_variant(a1, 4)
    out = scaling_isomorphism(a1, a2)
    assert out.status == "isometry"
    assert out.certified
    assert out.phi_V == RationalMatrix.identity(4).scale(2)
    assert out.s_matrix == RationalMatrix.identity(4).scale(4)


def test_scaling_isomorphism_irrational_factor():
    a1 = n20()
    a2 = _scaled_variant(a1, 2)
    out = scaling_isomorphism(a1, a2)
    assert out.status == "irrational-scaling"
    assert not out.certified
    assert out.phi_V is None
    # char poly of S = 2I on R^4: (t-2)^4
    assert list(out.char_poly) == [
        Fraction(1),
        Fraction(-8),
        Fraction(24),
        Fraction(-32),
        Fraction(16),
    ]


def test_scaling_isomorphism_rejects_causal_flip():
    a1 = n11()
    a2 = _scaled_variant(a1, -1)
    with pytest.raises(PreconditionError):
        scaling_isomorphism(a1, a2)


def test_scaling_isomorphism_rejects_dimension_mismatch():
    with pytest.raises(PreconditionError):
        scaling_isomorphism(n20(), heisenberg())


def _reference_C(a):
    """The structure matrices' text, entry by entry through rat_to_str."""
    return [[[rat_to_str(x) for x in c.row(i)] for i in range(a.m)] for c in a.structure]


def test_algebra_json_C_is_each_matrix_text():
    f = Fraction
    halves = NilpotentAlgebra2(
        m=3,
        n=2,
        structure=(
            RationalMatrix([[0, f(1, 2), f(-2, 3)], [f(-1, 2), 0, 0], [f(2, 3), 0, 0]]),
            RationalMatrix([[0, 2**70, 0], [-(2**70), 0, f(5, 7)], [0, f(-5, 7), 0]]),
        ),
    )
    empty = NilpotentAlgebra2(m=0, n=1, structure=(RationalMatrix([]),))
    module = build_module(CliffordSignature(2, 1))
    form_z = SignatureForm(eta(2, 1))
    algebras = [
        halves,
        empty,
        random_adapted_algebra(random.Random(3)).algebra,
        free_algebra(2, 1).algebra,
        *(ma.algebra for ma in (n20(), n11(), n02(), heisenberg())),
        algebra_from_J(module.generators, module.module_form, form_z).algebra,
    ]
    for a in algebras:
        assert a.to_json()["C"] == _reference_C(a)
    assert halves.to_json()["C"][0][0] == ["0", "1/2", "-2/3"]
