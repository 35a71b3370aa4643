"""Standard pseudo-metric algebras inside so(p,q): trace-form indices,
eta twists, certified reductions, free algebras and the GL action."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilforge.catalog import n11, n20
from nilforge.errors import (
    DegenerateWError,
    DimensionMismatchError,
    DimError,
    NotAdaptedError,
    SingularAError,
)
from nilforge.exactlin import (
    MatrixSubspace,
    RationalMatrix,
    SignatureForm,
    eta,
    nu,
    rank,
    rat,
    signature,
    trace_gram,
)
from nilforge.lattice import integer_rescale
from nilforge.nilpotent import MetricAlgebra, bracket
from nilforge.standardform import (
    apply_free_automorphism,
    eta_conjugate,
    eta_twist,
    find_realizations,
    free_algebra,
    free_bracket,
    free_isomorphism,
    gl_action,
    in_so,
    orbit_witness_check,
    quotient_by_center_subspace,
    reduction_isomorphism,
    so_basis,
    so_pair_signs,
    standard_algebra,
    structure_space,
)

from helpers import random_adapted_algebra


# ---------------------------------------------------------------------------
# so(p,q) and its trace form


def test_so_basis_membership_and_dimension():
    for p in range(4):
        for q in range(4 - p):
            m = p + q
            if m < 2:
                continue
            w = so_basis(p, q)
            assert w.dim == m * (m - 1) // 2
            assert all(in_so(b, p, q) for b in w.basis)


def test_trace_form_index_of_so_pq():
    """Index ((p(p-1)+q(q-1))/2, pq) for the trace form on so(p,q)."""
    for total in range(2, 6):
        for p in range(total + 1):
            q = total - p
            sig = signature(trace_gram(so_basis(p, q)))
            assert sig == ((p * (p - 1) + q * (q - 1)) // 2, p * q, 0)


def test_so_gram_diagonal_nu_over_2():
    iso = free_isomorphism(2, 1)
    assert iso["gram_diagonal"] == [
        Fraction(s, 2) for s in so_pair_signs(2, 1)
    ]
    assert iso["certified"]


# ---------------------------------------------------------------------------
# eta twists and realizations: worked-example goldens


def test_n20_right_twist_matrices_match_worked_example():
    c = structure_space(n20().algebra)
    d = eta_twist(c, 2, 2, "right")
    d1 = RationalMatrix(((0, 0, -1, 0), (0, 0, 0, -1), (-1, 0, 0, 0), (0, -1, 0, 0)))
    d2 = RationalMatrix(((0, 0, 0, -1), (0, 0, 1, 0), (0, 1, 0, 0), (-1, 0, 0, 0)))
    assert tuple(d.basis) == (d1, d2)
    assert trace_gram(d) == RationalMatrix(((-4, 0), (0, -4)))


def test_n11_right_twist_matrices_match_worked_example():
    c = structure_space(n11().algebra)
    d = eta_twist(c, 2, 2, "right")
    d1 = RationalMatrix(((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0)))
    d2 = RationalMatrix(((0, 0, -1, 0), (0, 0, 0, -1), (-1, 0, 0, 0), (0, -1, 0, 0)))
    assert tuple(d.basis) == (d1, d2)
    assert trace_gram(d) == RationalMatrix(((4, 0), (0, -4)))
    # transpose closure observed in the worked example
    assert d1.transpose() == -d1
    assert d2.transpose() == d2


def test_degenerate_twists_give_zero_gram():
    for ma in (n20(), n11()):
        c = structure_space(ma.algebra)
        for p, q in ((3, 1), (1, 3)):
            gram = trace_gram(eta_twist(c, p, q, "right"))
            assert gram == RationalMatrix.zeros(2, 2)


def test_find_realizations_n20():
    out = find_realizations(n20().algebra)
    assert [(e["p"], e["q"]) for e in out] == [(0, 4), (2, 2), (4, 0)]
    by_pq = {(e["p"], e["q"]): tuple(e["signature"]) for e in out}
    assert by_pq[(2, 2)] == (0, 2)


def test_find_realizations_n11_excludes_degenerate():
    out = find_realizations(n11().algebra)
    pqs = [(e["p"], e["q"]) for e in out]
    assert (2, 2) in pqs and (3, 1) not in pqs and (1, 3) not in pqs
    by_pq = {(e["p"], e["q"]): tuple(e["signature"]) for e in out}
    assert by_pq[(2, 2)] == (1, 1)


def test_find_realizations_requires_adapted():
    raw = n20().algebra
    raw = raw.__class__(
        m=raw.m, n=raw.n, structure=raw.structure, form_V=raw.form_V,
        form_Z=raw.form_Z, tag="raw",
    )
    with pytest.raises(NotAdaptedError):
        find_realizations(raw)
    assert structure_space(raw).dim == 0


# ---------------------------------------------------------------------------
# certified reductions


def test_left_and_right_twists_share_the_trace_gram():
    """tr(eta C eta C') = tr(C eta C' eta): the two twists of a structure
    space have one Gram, so one signature, for every split p + q = m."""
    rng = random.Random(314)
    for _ in range(25):
        c = structure_space(random_adapted_algebra(rng, max_m=5).algebra)
        for p in range(c.ambient_dim + 1):
            q = c.ambient_dim - p
            assert trace_gram(eta_twist(c, p, q, "left")) == trace_gram(
                eta_twist(c, p, q, "right")
            )


def _check_T_is_homomorphism(a, t, target):
    """Independent re-certification: T[x,y]_a = [Tx, Ty]_target on basis pairs."""
    dim = a.m + a.n
    for i in range(a.m):
        for j in range(i + 1, a.m):
            x = [1 if k == i else 0 for k in range(dim)]
            y = [1 if k == j else 0 for k in range(dim)]
            lhs = t.apply(bracket(a, x, y))
            rhs = bracket(target.algebra, t.apply(x), t.apply(y))
            assert list(lhs) == list(rhs)


def test_reduction_isomorphism_certified_on_examples():
    for ma in (n20(), n11()):
        a = ma.algebra
        for p in range(a.m + 1):
            q = a.m - p
            d = eta_twist(structure_space(a), p, q, "left")
            if signature(trace_gram(d))[2]:
                with pytest.raises(DegenerateWError):
                    reduction_isomorphism(a, p, q)
                continue
            t, target = reduction_isomorphism(a, p, q)
            assert rank(t) == a.m + a.n
            _check_T_is_homomorphism(a, t, target)


def test_reduction_isomorphism_random_adapted():
    rng = random.Random(777)
    done = 0
    while done < 20:
        ma = random_adapted_algebra(rng)
        a = ma.algebra
        for p in range(a.m + 1):
            q = a.m - p
            d = eta_twist(structure_space(a), p, q, "left")
            if signature(trace_gram(d))[2]:
                continue
            t, target = reduction_isomorphism(a, p, q)
            _check_T_is_homomorphism(a, t, target)
        done += 1


# ---------------------------------------------------------------------------
# free algebras


def test_free_algebra_structure_constants_are_signs():
    for p, q in ((2, 0), (1, 1), (2, 1), (0, 3)):
        free = free_algebra(p, q)
        for c in free.algebra.structure:
            assert all(x.denominator == 1 and abs(x) <= 1 for x in c.entries())
        d, _ = integer_rescale(free.algebra)
        assert d == 1


def test_free_algebra_unnormalized_basis_needs_rescale_2():
    std = standard_algebra(2, 1, MatrixSubspace(3, [phi.scale(2) for phi in so_basis(2, 1).basis]))
    d, rescaled = integer_rescale(std.algebra)
    assert d == 2
    assert all(
        x.denominator == 1 for c in rescaled.structure for x in c.entries()
    )


def test_free_bracket_matches_basis_images():
    p, q = 2, 1
    w = so_basis(p, q)
    m = p + q
    idx = 0
    for i in range(m):
        for j in range(i + 1, m):
            ei = tuple(1 if t == i else 0 for t in range(m))
            ej = tuple(1 if t == j else 0 for t in range(m))
            assert free_bracket(p, q, (ei, None), (ej, None)) == w.basis[idx]
            idx += 1


_small = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 1, 2, 3]))


@st.composite
def _free_pairs(draw):
    """(p, q) with p+q <= 6 and two V parts, each zero or drawn."""
    p = draw(st.integers(0, 6))
    q = draw(st.integers(0, 6 - p))
    zero = (Fraction(0),) * (p + q)
    vector = st.one_of(st.just(zero), st.tuples(*[_small] * (p + q)))
    return p, q, draw(vector), draw(vector)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_free_pairs())
def test_free_bracket_matches_entrywise_reference(case):
    p, q, x, y = case
    m = p + q
    signs = [1] * p + [-1] * q
    ref = RationalMatrix(
        [
            [-Fraction(1, 2) * (x[i] * y[j] - y[i] * x[j]) * signs[j] for j in range(m)]
            for i in range(m)
        ]
    )
    assert free_bracket(p, q, (x, None), (y, None)) == ref


def test_free_bracket_rejects_v_parts_of_the_wrong_length():
    e = ((1, 0, 0), None)
    for bad in (((1, 0, 0, 5), None), ((0, 1), None)):
        with pytest.raises(DimensionMismatchError):
            free_bracket(2, 1, e, bad)
        with pytest.raises(DimensionMismatchError):
            free_bracket(2, 1, bad, e)


def test_negative_signature_is_dim_error():
    w = so_basis(2, 0)
    ident = RationalMatrix.identity(2)
    calls = [
        lambda: eta(-1, 3),
        lambda: eta(3, -1),
        lambda: nu(-1, 3, 1),
        lambda: so_basis(-1, 3),
        lambda: so_pair_signs(-1, 3),
        lambda: SignatureForm.standard(-1, 3),
        lambda: eta_twist(w, -1, 3, "right"),
        lambda: eta_twist(w, 3, -1, "left"),
        lambda: gl_action(ident, w, -1, 3),
        lambda: free_bracket(-1, 3, ((1, 0), None), ((0, 1), None)),
    ]
    for call in calls:
        with pytest.raises(DimError):
            call()


def test_free_duality_identity_100_random_triples():
    """<[x,y], Z>_so = <Z x, y>_{p,q}: the free bracket is trace-dual to
    applying Z, computed without the J-map machinery."""
    rng = random.Random(60)
    for _ in range(100):
        m = rng.randint(2, 4)
        p = rng.randint(0, m)
        q = m - p
        x = tuple(rat(rng.randint(-3, 3)) for _ in range(m))
        y = tuple(rat(rng.randint(-3, 3)) for _ in range(m))
        w = so_basis(p, q)
        z = w.element([rng.randint(-2, 2) for _ in range(w.dim)])
        lhs = -(free_bracket(p, q, (x, None), (y, None)) * z).trace()
        e = eta(p, q)
        zx = z.apply(x)
        rhs = sum((a * b for a, b in zip(e.apply(zx), y)), rat(0))
        assert lhs == rhs


def test_free_isomorphism_all_m_up_to_4():
    for m in (2, 3, 4):
        for p in range(m + 1):
            assert free_isomorphism(p, m - p)["certified"]


def test_free_algebra_rejects_small_dim():
    with pytest.raises(DimError):
        free_algebra(1, 0)


# ---------------------------------------------------------------------------
# GL action


def _random_invertible(rng, n):
    while True:
        m = RationalMatrix(
            [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        )
        if rank(m) == n:
            return m


def test_gl_action_group_laws_100_random():
    rng = random.Random(21)
    for _ in range(100):
        m = rng.randint(2, 4)
        p = rng.randint(0, m)
        q = m - p
        w = so_basis(p, q)
        a = _random_invertible(rng, m)
        b = _random_invertible(rng, m)
        # transpose law and involution for the eta-conjugate
        assert eta_conjugate(a * b, p, q) == eta_conjugate(b, p, q) * eta_conjugate(a, p, q)
        assert eta_conjugate(eta_conjugate(a, p, q), p, q) == a
        # action laws on the full so(p,q)
        assert gl_action(RationalMatrix.identity(m), w, p, q).equals(w)
        lhs = gl_action(a, gl_action(b, w, p, q), p, q)
        rhs = gl_action(a * b, w, p, q)
        assert lhs.equals(rhs)


def test_gl_action_rejects_singular():
    with pytest.raises(SingularAError):
        gl_action(RationalMatrix.zeros(2, 2), so_basis(2, 0), 2, 0)


def test_orbit_witness_check():
    rng = random.Random(2)
    p, q = 2, 1
    w1 = MatrixSubspace(3, [so_basis(p, q).basis[0]])
    a = _random_invertible(rng, 3)
    w2 = gl_action(a, w1, p, q)
    assert orbit_witness_check(a, w1, w2, p, q)
    assert not orbit_witness_check(RationalMatrix.identity(3), w1, w2, p, q) or w1.equals(w2)


def test_apply_free_automorphism():
    p, q = 2, 1
    m = 3
    rng = random.Random(55)
    a = _random_invertible(rng, m)
    s_hom = [so_basis(p, q).basis[0].scale(k) for k in range(m)]
    x = ((1, 2, 3), so_basis(p, q).basis[1])
    v, z = apply_free_automorphism(p, q, a, s_hom, x)
    assert list(v) == list(a.apply([1, 2, 3]))
    expected = a * x[1] * eta_conjugate(a, p, q)
    for c, s in zip((1, 2, 3), s_hom):
        expected = expected + s.scale(c)
    assert z == expected
    with pytest.raises(SingularAError):
        apply_free_automorphism(p, q, RationalMatrix.zeros(m, m), s_hom, x)


# ---------------------------------------------------------------------------
# quotients


def test_quotient_by_center_subspace():
    f = free_algebra(3, 0)
    w = f.W
    k = MatrixSubspace(3, [w.basis[2]])  # kill phi_23
    quotient, metric = quotient_by_center_subspace(f, k)
    assert metric
    assert quotient.m == 3 and quotient.n == 2
    # surviving brackets: [e1,e2] -> first complement vector, [e1,e3] -> second
    assert quotient.structure[0].entry(0, 1) == 1
    assert quotient.structure[1].entry(0, 2) == 1
    assert quotient.structure[0].entry(1, 2) == 0
    assert quotient.structure[1].entry(1, 2) == 0


def test_quotient_of_whole_center_is_abelian():
    f = free_algebra(2, 0)
    quotient, metric = quotient_by_center_subspace(f, f.W)
    assert quotient.n == 0
    assert quotient.structure == ()


def test_structure_space_is_the_span_of_the_adapted_check():
    a = n20().algebra
    assert structure_space(a) is a.structure_span
    assert structure_space(a).basis == a.structure
