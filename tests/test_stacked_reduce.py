"""The reduce chain on stacked structure tensors.

``algebra_from_J`` makes every G_V J_k in one product of G_V with the J_k
side by side (a gather when G_V is monomial), reads the skew law off that
stack and forms C = G_Z^{-1} (-G_V J) as one more product; ``find_realizations``
reads the trace Gram of every signature off one product with the sign rows
vec(nu nu^T); ``eta_twist`` flips signs instead of multiplying by eta;
``trace_pairing`` stacks each side once; ``from_relations`` builds int64
rows below 2**62.  Each is checked against a copy of the code it replaced.
"""

import math
import random
from fractions import Fraction

import pytest

from nilforge import exactlin
from nilforge.clifford import CliffordSignature, build_module
from nilforge.errors import DimensionMismatchError, NotSkewError
from nilforge.exactlin import (
    RationalMatrix,
    SignatureForm,
    _int_form,
    eta,
    eta_conjugate,
    eta_pairings,
    eta_sides,
    inverse,
    lin_combs,
    signature,
    trace_pairing,
)
from nilforge.lattice import pseudo_H_algebra
from nilforge.nilpotent import NilpotentAlgebra2, algebra_from_J
from nilforge.standardform import find_realizations

SIGNATURES = [(r, t - r) for t in range(1, 7) for r in range(t + 1)]
BIG = 2**62


def _structure_per_J(j_list, form_v, form_z):
    """The structure ``algebra_from_J`` built before the stacked path: one
    product, skew test and negation per J, then ``lin_combs``."""
    rhs = []
    for j in j_list:
        gj = form_v.matrix * j
        if not gj.is_antisymmetric():
            raise NotSkewError("J_k is not skew-symmetric for form_V")
        rhs.append(-gj)
    return tuple(lin_combs(form_z.inverse_matrix(), rhs, form_v.dim))


def _assert_same_structure(j_list, form_v, form_z):
    got = algebra_from_J(j_list, form_v, form_z).structure
    want = _structure_per_J(j_list, form_v, form_z)
    assert got == want
    for g, w in zip(got, want):
        assert _int_form(g)[0].dtype == _int_form(w)[0].dtype
    return got


def _rational(rng, lo=-3, hi=3):
    return Fraction(rng.randint(lo, hi), rng.choice([1, 1, 2, 3, 5]))


def _matrices(rng, count, rows, cols, scale=1):
    return [
        RationalMatrix([[_rational(rng) * scale for _ in range(cols)] for _ in range(rows)])
        for _ in range(count)
    ]


def _invertible(rng, m):
    while True:
        p = RationalMatrix([[_rational(rng) for _ in range(m)] for _ in range(m)])
        if exactlin.rank(p) == m:
            return p


def _antisymmetric(rng, m, scale=1, ternary=False):
    rows = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            x = (rng.choice([-1, 0, 0, 1]) if ternary else _rational(rng)) * scale
            rows[i][j], rows[j][i] = x, -x
    return RationalMatrix(rows)


def _module_forms(r, s, v_scale=1, j_scale=1):
    module = build_module(CliffordSignature(r, s))
    form_v = SignatureForm(module.module_form.matrix.scale(v_scale))
    return [j.scale(j_scale) for j in module.generators], form_v, SignatureForm.standard(r, s)


@pytest.mark.parametrize("r, s", SIGNATURES)
def test_algebra_from_J_matches_the_per_J_loop_on_every_signature(r, s):
    _assert_same_structure(*_module_forms(r, s))


@pytest.mark.parametrize("m, n", [(3, 2), (5, 3), (8, 4), (16, 2)])
def test_algebra_from_J_matches_the_per_J_loop_for_a_form_that_is_not_diagonal(m, n):
    # G_V = P^T eta P is no signed permutation, so G_V J takes the dense product
    rng = random.Random(m * 31 + n)
    p = _invertible(rng, m)
    g_v = p.transpose() * eta(m // 2, m - m // 2) * p
    g_v_inv = inverse(g_v)
    js = [g_v_inv * _antisymmetric(rng, m) for _ in range(n)]  # G_V J_k antisymmetric
    q = _invertible(rng, n)
    g_z = q.transpose() * eta(n - 1, 1) * q
    _assert_same_structure(js, SignatureForm(g_v), SignatureForm(g_z))


@pytest.mark.parametrize("r, s", [(2, 1), (3, 0), (4, 0), (3, 3)])
def test_algebra_from_J_matches_the_per_J_loop_on_python_int_numerators(r, s):
    # 2**40 J against 2**80 eta: every product numerator is past 2**62
    got = _assert_same_structure(*_module_forms(r, s, v_scale=2**80, j_scale=2**40))
    assert all(_int_form(c)[0].dtype == object for c in got)
    _assert_same_structure(*_module_forms(r, s, v_scale=Fraction(1, 2**80), j_scale=2**40))


def test_algebra_from_J_with_no_maps():
    form_v = SignatureForm.standard(2, 1)
    form_z = SignatureForm(RationalMatrix.zeros(0, 0))
    assert _assert_same_structure([], form_v, form_z) == ()
    assert algebra_from_J([], form_v, form_z).algebra.tag == "raw"


@pytest.mark.parametrize("r, s", [(2, 1), (3, 0), (6, 0), (3, 3)])
def test_only_the_last_map_not_skew_raises(r, s):
    js, form_v, form_z = _module_forms(r, s)
    size = js[0].rows
    bump = RationalMatrix([[int((i, j) == (0, 1)) for j in range(size)] for i in range(size)])
    broken = js[:-1] + [js[-1] + bump]
    for build in (algebra_from_J, _structure_per_J):
        with pytest.raises(NotSkewError):
            build(broken, form_v, form_z)
    # a map of the wrong size is still a shape error
    with pytest.raises(DimensionMismatchError):
        algebra_from_J(js[:-1] + [RationalMatrix.identity(size + 1)], form_v, form_z)


def _record_products(monkeypatch, size, n):
    """Record whether each product of G_V (size x size) with n maps side by
    side is a gather, and fail any that would be dense."""
    real, seen = exactlin._times, []

    def guarded(na, ma, nb, mb):
        if na.shape == (size, size) and nb.shape == (size, n * size):
            if ma is None and mb is None:
                raise AssertionError("G_V J took the dense product")
            seen.append(ma is not None)
        return real(na, ma, nb, mb)

    monkeypatch.setattr(exactlin, "_times", guarded)
    return seen


@pytest.mark.parametrize("r, s", [(6, 0), (3, 3)])
def test_pseudo_H_algebra_gathers_G_V_J(monkeypatch, r, s):
    module = build_module(CliffordSignature(r, s))
    assert module.module_dim >= 16
    seen = _record_products(monkeypatch, module.module_dim, r + s)
    ma = pseudo_H_algebra(module)
    assert seen == [True]
    monkeypatch.undo()
    assert ma.structure == _structure_per_J(
        module.generators, module.module_form, SignatureForm.standard(r, s)
    )


def test_the_dense_guard_fires_for_a_form_that_is_not_monomial(monkeypatch):
    # the guard above is live: at size 16 a non-diagonal G_V takes the product
    rng = random.Random(16)
    p = _invertible(rng, 16)
    g_v = p.transpose() * eta(8, 8) * p
    js = [inverse(g_v) * _antisymmetric(rng, 16) for _ in range(2)]
    _record_products(monkeypatch, 16, 2)
    with pytest.raises(AssertionError):
        algebra_from_J(js, SignatureForm(g_v), SignatureForm.standard(2, 0))


def _realizations_per_p(a):
    """``find_realizations`` before the stacked Grams: for each p, the
    signature of [tr(C^k (C^l)^eta)] from n conjugates and a trace pairing."""
    out = []
    for p in range(a.m + 1):
        q = a.m - p
        twisted = [eta_conjugate(c, p, q) for c in a.structure]
        sp, sq, nullity = signature(trace_pairing(a.structure, twisted))
        if nullity == 0:
            out.append({"p": p, "q": q, "signature": (sp, sq)})
    return out


def _adapted(rng, m, n, scale=1, ternary=False):
    while True:
        cs = tuple(_antisymmetric(rng, m, scale, ternary) for _ in range(n))
        a = NilpotentAlgebra2.tagged(m=m, n=n, structure=cs)
        if a.tag == "adapted":
            return a


def test_find_realizations_matches_the_per_p_signatures():
    rng = random.Random(2024)
    degenerate = {}
    cases = [(m, n) for m in range(2, 7) for n in range(1, min(3, m * (m - 1) // 2) + 1)]
    for m, n in cases:
        for ternary in (False, True, True, True):
            a = _adapted(rng, m, n, ternary=ternary)
            got = find_realizations(a)
            assert got == _realizations_per_p(a)
            degenerate[m] = degenerate.get(m, 0) + (len(got) < m + 1)
    # E_12 - E_21 + E_34 - E_43 is null for the form at p = 1 and p = 3
    c = RationalMatrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    a = NilpotentAlgebra2(m=4, n=1, structure=(c,), tag="adapted")
    assert [x["p"] for x in find_realizations(a)] == [0, 2, 4]
    assert find_realizations(a) == _realizations_per_p(a)
    # some p is degenerate at every m >= 3; at m = 2 the one Gram entry is
    # 2 c^2 nu_1 nu_2, never zero
    assert all(degenerate[m] for m in range(3, 7))


def test_find_realizations_on_python_int_numerators():
    rng = random.Random(7)
    for m, n in [(3, 2), (6, 3)]:
        a = _adapted(rng, m, n, scale=2**40)
        assert find_realizations(a) == _realizations_per_p(a)


def test_eta_pairings_and_sides_against_products():
    rng = random.Random(3)
    for m in (1, 4, 6):
        mats = _matrices(rng, 3, m, m)
        grams = eta_pairings(mats, range(m + 1))
        for p, gram in enumerate(grams):
            q = m - p
            assert gram == trace_pairing(mats, [eta_conjugate(x, p, q) for x in mats])
            e = eta(p, q)
            assert eta_sides(mats, p, q, True) == [e * x for x in mats]
            assert eta_sides(mats, p, q, False) == [x * e for x in mats]
    assert eta_sides([], 1, 1, True) == []


def _trace(x, y):
    terms = (x.entry(i, j) * y.entry(j, i) for i in range(x.rows) for j in range(x.cols))
    return sum(terms, Fraction(0))


@pytest.mark.parametrize("scale", [1, 2**35, 2**70])
def test_trace_pairing_of_one_list_equals_a_copied_list(scale):
    rng = random.Random(scale % 1000)
    xs = _matrices(rng, 3, 4, 4, scale)
    same = trace_pairing(xs, xs)
    assert same == trace_pairing(xs, list(xs))
    assert same == RationalMatrix([[_trace(x, y) for y in xs] for x in xs])
    if scale > 1:
        assert _int_form(same)[0].dtype == object


def test_trace_pairing_of_rectangular_matrices():
    rng = random.Random(11)
    xs, ys = _matrices(rng, 3, 2, 3), _matrices(rng, 2, 3, 2)
    assert trace_pairing(xs, ys) == RationalMatrix([[_trace(x, y) for y in ys] for x in xs])


@pytest.mark.parametrize("value", [BIG - 1, BIG, -BIG, 2**64])
def test_from_relations_agrees_with_fraction_rows(value):
    for rels in (
        [({0: value, 2: -3}, 1), ({}, 1), ({1: -2}, 1)],
        [({0: value, 2: -3}, 1), ({1: value}, 3), ({}, 1), ({2: 6}, 4)],
        [({0: 2 * value}, 2), ({1: 1}, 1)],
    ):
        got = RationalMatrix.from_relations(rels, 3)
        rows = [[Fraction(num.get(j, 0), den) for j in range(3)] for num, den in rels]
        assert got == RationalMatrix(rows)
        assert [got.row(i) for i in range(len(rels))] == [tuple(r) for r in rows]
        # canonical: N / D in lowest terms, int64 exactly when max |N| < 2**62
        n, d = _int_form(got)
        assert d == math.lcm(*(x.denominator for r in rows for x in r))
        assert (n.dtype == object) == (max(abs(x * d) for r in rows for x in r) >= BIG)
