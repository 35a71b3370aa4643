"""``exactlin.polarized_match`` and the pseudo H-type laws built on it.

Entry [k][l] of ``polarized_match(xs, ys, T, coeffs, den)`` says whether
X_k Y_l + X_l Y_k == (coeffs[k][l] / den) T.  On monomial operands it reads
the answer off the index arrays, with no product formed; on any other input
it makes all the products in one batched matmul.  Both are checked against
``RationalMatrix`` products and ``==``, and ``h_type_laws`` against a copy
of the per-pair law check it replaced: on every Clifford signature with
r+s <= 6, on rational combinations of generators, on broken modules and
forms, on numerators of 2**62 and more, with no maps, and for a form that
is not diagonal.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilforge import exactlin
from nilforge.clifford import CliffordSignature, build_module, verify_module
from nilforge.errors import DimensionMismatchError
from nilforge.exactlin import RationalMatrix, _int_form, inverse, lin_combs, polarized_match
from nilforge.nilpotent import h_type_laws

PROPS = settings(max_examples=150, deadline=None, derandomize=True)

SIGNATURES = [(r, t - r) for t in range(1, 7) for r in range(t + 1)]


def _laws_per_pair(js, g_v, g_z):
    """The per-pair law check ``h_type_laws`` made before ``polarized_match``:
    one product, sum and comparison for every pair of maps."""
    js = list(js)
    n = len(js)
    gz, dz = _int_form(g_z)
    gz = gz.tolist()
    unit = RationalMatrix.from_relations([({i: 1}, dz) for i in range(g_v.rows)], g_v.rows)
    g_unit = g_v * unit
    jts = [j.transpose() for j in js]
    gjs = [g_v * j for j in js]
    pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
    return {
        "skew": all(gj.is_antisymmetric() for gj in gjs),
        "square": all(j * j == unit.scale(-gz[k][k]) for k, j in enumerate(js)),
        "anticommutation": all(
            js[k] * js[l] + js[l] * js[k] == unit.scale(-2 * gz[k][l]) for k, l in pairs
        ),
        "orthogonality": all(jts[k] * gjs[k] == g_unit.scale(gz[k][k]) for k in range(n))
        and all(
            jts[k] * gjs[l] + jts[l] * gjs[k] == g_unit.scale(2 * gz[k][l]) for k, l in pairs
        ),
    }


def _module(r, s):
    module = build_module(CliffordSignature(r, s))
    return list(module.generators), module.module_form.matrix, RationalMatrix.diag(
        [1] * r + [-1] * s
    )


def _assert_laws(js, g_v, g_z, passed=None):
    got = h_type_laws(js, g_v, g_z)
    assert got == _laws_per_pair(js, g_v, g_z)
    if passed is not None:
        assert all(got.values()) is passed
    return got


@pytest.mark.parametrize("r, s", SIGNATURES)
def test_laws_match_the_per_pair_check_on_every_signature(r, s):
    js, g_v, g_z = _module(r, s)
    _assert_laws(js, g_v, g_z, passed=True)
    # a broken G_Z: (G_Z)_01 = (G_Z)_10 = 1 where the generators anticommute
    if r + s > 1:
        n = r + s
        broken = g_z + RationalMatrix([[int(i + j == 1) for j in range(n)] for i in range(n)])
        got = _assert_laws(js, g_v, broken, passed=False)
        assert not got["anticommutation"] and not got["orthogonality"]


@pytest.mark.parametrize("r, s", [(2, 1), (3, 1), (2, 2), (4, 1), (3, 3)])
def test_laws_for_rational_combinations_of_the_generators(r, s):
    # J'_k = sum_l B_kl J_l satisfies the laws for G_Z' = B eta B^T; no J'_k is
    # monomial, so every product is one batched matmul
    js, g_v, eta_rs = _module(r, s)
    n, dim = r + s, g_v.rows
    rng = random.Random(r * 10 + s)
    b = RationalMatrix(
        [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n)] for _ in range(n)]
    )
    mixed = lin_combs(b, js, dim)
    g_z = b * eta_rs * b.transpose()
    _assert_laws(mixed, g_v, g_z)
    _assert_laws(mixed, g_v, g_z + RationalMatrix.identity(n).scale(Fraction(1, 5)))


@pytest.mark.parametrize("r, s", [(1, 1), (2, 1), (4, 0), (3, 2), (6, 0), (3, 3)])
def test_laws_on_broken_generator_lists(r, s):
    js, g_v, g_z = _module(r, s)
    dim = g_v.rows
    # J_0 + I/7 has two nonzeros in a row: no square law, no skew
    shifted = [js[0] + RationalMatrix.identity(dim).scale(Fraction(1, 7))] + js[1:]
    got = _assert_laws(shifted, g_v, g_z, passed=False)
    assert not got["square"] and not got["skew"]
    # a sign-flipped generator keeps every law
    _assert_laws([-js[0]] + js[1:], g_v, g_z, passed=True)
    if len(js) > 1:
        # a repeated generator commutes with itself: J_0 J_0 + J_0 J_0 = 2 J_0^2 != 0
        got = _assert_laws([js[0], js[0]] + js[2:], g_v, g_z, passed=False)
        assert got["skew"] and not got["anticommutation"]


@pytest.mark.parametrize("r, s", [(2, 1), (4, 1)])
def test_laws_on_numerators_of_2_62_and_more(r, s):
    # 2**40 J_k against 2**80 eta, and J_k / 2**40 against eta / 2**80: the
    # bounds reach 2**62, so both branches run on Python ints
    js, g_v, g_z = _module(r, s)
    for c in (2**40, Fraction(1, 2**40)):
        scaled = [j.scale(c) for j in js]
        _assert_laws(scaled, g_v, g_z.scale(c * c), passed=True)
        _assert_laws(scaled, g_v, g_z.scale(c), passed=False)
        _assert_laws(scaled, g_v.scale(2**70), g_z.scale(c * c), passed=True)


def test_laws_with_no_maps():
    for dim in (0, 2, 16):
        g_v = RationalMatrix.identity(dim)
        assert _assert_laws([], g_v, RationalMatrix.zeros(0, 0), passed=True) == dict.fromkeys(
            ["skew", "square", "anticommutation", "orthogonality"], True
        )
    assert polarized_match([], [], RationalMatrix.identity(3), [], 1) == []


@pytest.mark.parametrize("r, s", [(2, 1), (4, 0), (3, 2)])
def test_laws_for_a_non_diagonal_form(r, s):
    # P^-1 J_k P is skew for P^T G_V P, which is not monomial: the products
    # take the batched matmul, also at module dimensions of 16 and more
    js, g_v, g_z = _module(r, s)
    dim = g_v.rows
    p = RationalMatrix(
        [[int(i == j) + int(j == i + 1) * (i % 3 - 1) for j in range(dim)] for i in range(dim)]
    )
    p_inv = inverse(p)
    conj = [p_inv * j * p for j in js]
    g_p = p.transpose() * g_v * p
    assert exactlin._monomial(g_p) is None
    _assert_laws(conj, g_p, g_z, passed=True)
    _assert_laws(js, g_p, g_z, passed=False)


# ---------------------------------------------------------------------------
# the kernel against RationalMatrix products


def _products(xs, ys, t, coeffs, den):
    n = len(xs)
    return [
        [xs[k] * ys[l] + xs[l] * ys[k] == t.scale(Fraction(coeffs[k][l], den)) for l in range(n)]
        for k in range(n)
    ]


def _signed_permutation(rng, dim):
    order = list(range(dim))
    rng.shuffle(order)
    rows = [[0] * dim for _ in range(dim)]
    for i, j in enumerate(order):
        rows[i][j] = rng.choice((-1, 1))
    return RationalMatrix(rows)


SCALES = [1, 1, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), 2**40, Fraction(1, 2**40)]


@st.composite
def stacks(draw):
    """(xs, ys, T, coeffs, den): signed permutations drawn so that many
    entries match.  The X's share one scale a and the Y's one scale b (but
    for a rare odd one out), T is I, X_0 Y_0 or a random signed permutation
    times ab, and X's and Y's come from the identity, two random signed
    permutations and anticommuting Clifford generators."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from([3, 8, 16, 17, 32]))
    n = draw(st.integers(1, 4))
    pool = [RationalMatrix.identity(dim)] + [_signed_permutation(rng, dim) for _ in range(2)]
    if dim in (8, 16, 32):
        sig = {8: (3, 0), 16: (2, 2), 32: (4, 1)}[dim]
        pool += list(build_module(CliffordSignature(*sig)).generators)
    pick, scales = st.sampled_from(range(len(pool))), st.sampled_from(SCALES)
    a, b = draw(scales), draw(scales)
    xs = [pool[draw(pick)].scale(a) for _ in range(n)]
    ys = xs if draw(st.booleans()) else [pool[draw(pick)].scale(b) for _ in range(n)]
    if draw(st.integers(0, 4)) == 0:
        xs[-1] = xs[-1].scale(draw(scales))
    t = draw(st.sampled_from([pool[0], pool[1], xs[0] * ys[0]]))
    t = t.scale(a * (a if ys is xs else b)) if t is not pool[1] or draw(st.booleans()) else t
    den = draw(st.sampled_from([1, 1, 1, 2, 3, 2**63]))
    values = st.sampled_from([0, 1, -1, 2, -2, 4, 2**64])
    coeffs = [[draw(values) for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for l in range(n):
            fit = _multiple(xs[k] * ys[l] + xs[l] * ys[k], t)
            if fit is not None and (fit * den).denominator == 1 and draw(st.booleans()):
                coeffs[k][l] = int(fit * den)
    return xs, ys, t, coeffs, den


def _multiple(m, t):
    """The rational c with m == c t, or None."""
    i, j = next((i, j) for i in range(t.rows) for j in range(t.cols) if t.entry(i, j))
    c = m.entry(i, j) / t.entry(i, j)
    return c if m == t.scale(c) else None


@PROPS
@given(stacks())
def test_kernel_matches_rational_products(case):
    assert polarized_match(*case) == _products(*case)


def _shift(dim, by):
    return RationalMatrix([[int(j == (i + by) % dim) for j in range(dim)] for i in range(dim)])


@pytest.mark.parametrize("dim", [5, 16])
def test_two_products_in_different_columns_never_match(dim):
    # X_0 Y_1 + X_1 Y_0 = P - Q holds 1 and -1 in two columns of every row:
    # the values cancel, but the sum is not zero
    p, q, unit = _shift(dim, 1), _shift(dim, 2), RationalMatrix.identity(dim)
    case = ([p, -q], [unit, unit], unit, [[0, 0], [0, 0]], 1)
    assert polarized_match(*case) == _products(*case) == [[False, False], [False, False]]
    case = ([p, -p], [unit, unit], unit, [[0, 0], [0, 0]], 1)
    assert polarized_match(*case) == _products(*case) == [[False, True], [True, False]]


@pytest.mark.parametrize("dim", [5, 16])
def test_a_sum_in_another_column_than_t_never_matches(dim):
    # X_k Y_l + X_l Y_k = 2P against 2Q: the right values in the wrong columns
    p, q, unit = _shift(dim, 1), _shift(dim, 2), RationalMatrix.identity(dim)
    coeffs = [[2, 2], [2, 2]]
    assert polarized_match([p, p], [unit, unit], q, coeffs, 1) == [[False] * 2] * 2
    assert polarized_match([p, p], [unit, unit], p, coeffs, 2) == [[False] * 2] * 2
    assert polarized_match([p, p], [unit, unit], p, coeffs, 1) == [[True] * 2] * 2


def test_kernel_rejects_mismatched_shapes():
    unit = RationalMatrix.identity(3)
    with pytest.raises(DimensionMismatchError):
        polarized_match([unit], [unit], RationalMatrix.identity(4), [[1]], 1)
    with pytest.raises(DimensionMismatchError):
        polarized_match([unit, unit], [unit], unit, [[1, 1], [1, 1]], 1)
    with pytest.raises(DimensionMismatchError):
        polarized_match([RationalMatrix.zeros(3, 2)], [unit], unit, [[1]], 1)


@pytest.mark.parametrize("r, s", [(6, 0), (3, 3)])
def test_verify_module_takes_the_index_branch(monkeypatch, r, s):
    # every operand of both kernel calls is monomial, and no matmul runs
    seen = []
    real = exactlin._monomial

    def spy(m):
        seen.append(real(m))
        return seen[-1]

    def no_matmul(*args, **kwargs):
        raise AssertionError("the index branch forms no product")

    module = build_module(CliffordSignature(r, s))
    fresh = type(module)(
        module.signature,
        module.module_dim,
        module.module_form,
        tuple(RationalMatrix(g.to_json()["entries"]) for g in module.generators),
        module.construction_path,
    )
    monkeypatch.setattr(exactlin, "_monomial", spy)
    monkeypatch.setattr(np, "matmul", no_matmul)
    assert verify_module.__wrapped__(fresh)["passed"]
    # 2n + 1 operands per call, and G_V J_k is a gather through J_k's form
    assert len(seen) >= 2 * (2 * (r + s) + 1)
    assert all(p is not None for p in seen)
