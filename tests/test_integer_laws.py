"""The checks above ``exactlin`` that read forms in integer form: the skew
test of ``algebra_from_J`` for non-diagonal G_V, ``h_type_laws`` for a
rational non-diagonal G_Z, the trace Gram of ``find_realizations`` against
the twisted-span path, and ``CliffordModule.to_json``'s eta; each against a
reference, and with no Fraction built."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from nilforge import cli
from nilforge.catalog import random_adapted_algebra
from nilforge.clifford import CliffordModule, CliffordSignature, build_module, verify_module
from nilforge.errors import BadInputError, NotSkewError
from nilforge.exactlin import (
    RationalMatrix,
    SignatureForm,
    inverse,
    lin_combs,
    signature,
    trace_gram,
)
from nilforge.nilpotent import algebra_from_J, h_type_laws
from nilforge.standardform import eta_twist, find_realizations, structure_space


@pytest.fixture
def fractions(monkeypatch):
    seen = Counter()
    new = Fraction.__new__

    def counted(*args, **kwargs):
        seen["Fraction"] += 1
        return new(*args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    return seen


# a symmetric, non-diagonal, positive definite G_V and an antisymmetric A
G_V = RationalMatrix([[1, 1, 0], [1, 2, 1], [0, 1, 3]])
A = RationalMatrix([[0, 1, -2], [-1, 0, 1], [2, -1, 0]])


def test_skew_for_a_non_diagonal_form():
    # J = G_V^{-1} A is skew for G_V: J^T G_V = -A = -G_V J
    skew = inverse(G_V) * A
    assert skew.transpose() * G_V == -(G_V * skew)
    ma = algebra_from_J([skew], SignatureForm(G_V), SignatureForm.standard(1, 0))
    assert ma.structure == (A.transpose(),)
    # A itself is skew for the identity, not for G_V; nor is G_V^{-1} A + I
    for wrong in (A, skew + RationalMatrix.identity(3)):
        assert wrong.transpose() * G_V != -(G_V * wrong)
        with pytest.raises(NotSkewError):
            algebra_from_J([skew, wrong], SignatureForm(G_V), SignatureForm.standard(2, 0))


def test_skew_for_eta_passes():
    # so(1, 1) for eta_{1,1}: J^T eta = -eta J
    j = RationalMatrix([[0, 1], [1, 0]])
    ma = algebra_from_J([j], SignatureForm.standard(1, 1), SignatureForm.standard(1, 0))
    assert ma.structure == (j.transpose() * SignatureForm.standard(1, 1).matrix,)
    with pytest.raises(NotSkewError):
        algebra_from_J(
            [RationalMatrix([[0, 1], [-1, 0]])],
            SignatureForm.standard(1, 1),
            SignatureForm.standard(1, 0),
        )


def _laws_reference(js, g_v, g_z):
    """The four laws with every scalar (G_Z)_kl a Fraction."""
    n, ident = len(js), RationalMatrix.identity(g_v.rows)
    pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]

    def sym(k, l):
        return js[k].transpose() * g_v * js[l] + js[l].transpose() * g_v * js[k]

    return {
        "skew": all(j.transpose() * g_v == -(g_v * j) for j in js),
        "square": all(js[k] * js[k] == ident.scale(-g_z.entry(k, k)) for k in range(n)),
        "anticommutation": all(
            js[k] * js[l] + js[l] * js[k] == ident.scale(-2 * g_z.entry(k, l)) for k, l in pairs
        ),
        "orthogonality": all(sym(k, k) == g_v.scale(2 * g_z.entry(k, k)) for k in range(n))
        and all(sym(k, l) == g_v.scale(2 * g_z.entry(k, l)) for k, l in pairs),
    }


@pytest.mark.parametrize("r, s", [(2, 0), (1, 1), (2, 1), (1, 2)])
def test_laws_for_a_rational_non_diagonal_g_z(fractions, r, s):
    # J'_k = sum_l B_kl J_l satisfies the laws for G_Z' = B eta B^T
    module = build_module(CliffordSignature(r, s))
    n, g_v = r + s, module.module_form.matrix
    rng = random.Random(r * 10 + s)
    b = RationalMatrix(
        [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n)] for _ in range(n)]
    )
    eta_rs = RationalMatrix.diag([1] * r + [-1] * s)
    js = lin_combs(b, module.generators, module.module_dim)
    g_z = b * eta_rs * b.transpose()
    broken = g_z + RationalMatrix([[int(i + j == 1) for j in range(n)] for i in range(n)])
    wanted = [_laws_reference(js, g_v, g) for g in (g_z, broken)]
    assert g_z._d > 1 and not g_z.is_integer()
    assert wanted[0] == dict.fromkeys(wanted[0], True)
    assert not wanted[1]["anticommutation"] and not wanted[1]["orthogonality"]
    fractions.clear()
    got = [h_type_laws(js, g_v, g) for g in (g_z, broken)]
    assert fractions["Fraction"] == 0
    assert got == wanted


def test_realizations_match_the_twisted_span_gram():
    rng = random.Random(16)
    for _ in range(40):
        a = random_adapted_algebra(rng, max_m=6).algebra
        c = structure_space(a)
        wanted = []
        for p in range(a.m + 1):
            sp, sq, nullity = signature(trace_gram(eta_twist(c, p, a.m - p, "right")))
            if nullity == 0:
                wanted.append({"p": p, "q": a.m - p, "signature": (sp, sq)})
        assert find_realizations(a) == wanted


def test_module_eta_is_read_in_integers(fractions):
    module = build_module(CliffordSignature(2, 2))
    wanted = [int(module.module_form.matrix.entry(i, i)) for i in range(module.module_dim)]
    fractions.clear()
    assert module.to_json()["eta"] == wanted
    assert fractions["Fraction"] == 0
    # a form that is no module form is rejected when the module is built
    form = SignatureForm(RationalMatrix.diag(["-3/2", "1/2", 2]))
    with pytest.raises(BadInputError):
        CliffordModule(module.signature, 3, form, ())


@pytest.mark.parametrize("argv", [["clifford", "3", "1"], ["triple", "2", "1"]])
def test_module_verbs_build_no_fraction(capsys, fractions, argv):
    # a module built and verified by an earlier test is memoized
    build_module.cache_clear()
    verify_module.cache_clear()
    fractions.clear()
    assert cli.main(argv) == 0
    assert fractions["Fraction"] == 0
    assert capsys.readouterr().out
