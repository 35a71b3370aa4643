"""Clifford modules built on signed-permutation index arrays.

``clifford.build_module`` carries every matrix of its recursion as index
arrays (cols, vals) and makes each generator once, through
``RationalMatrix.signed_permutation``, which proves the monomial form it
attaches.  The reference here is the dense recursion it replaced: the base
tables as matrices, each doubling step through a dense Kronecker product
and the final sort through a basis permutation (``helpers.kron`` and
``helpers.permute``).
"""

import random

import numpy as np
import pytest

from nilforge import exactlin
from nilforge.clifford import CliffordSignature, build_module, verify_module
from nilforge.errors import BadInputError, DimensionMismatchError
from nilforge.exactlin import RationalMatrix, SignatureForm, _int_form, _monomial

from helpers import kron, permute

SIGNATURES = [(r, n - r) for n in range(1, 9) for r in range(n + 1)]

_E = RationalMatrix(((1, 0), (0, -1)))
_P = RationalMatrix(((0, 1), (1, 0)))
_Q = RationalMatrix(((0, -1), (1, 0)))

_DENSE_BASE = {
    (1, 0): ([_Q], (1, 1)),
    (0, 1): ([_P], (1, -1)),
    (2, 0): (
        [
            RationalMatrix(((0, 0, -1, 0), (0, 0, 0, -1), (1, 0, 0, 0), (0, 1, 0, 0))),
            RationalMatrix(((0, 0, 0, -1), (0, 0, 1, 0), (0, -1, 0, 0), (1, 0, 0, 0))),
        ],
        (1, 1, 1, 1),
    ),
    (1, 1): (
        [
            RationalMatrix(((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))),
            RationalMatrix(((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))),
        ],
        (1, 1, -1, -1),
    ),
    (0, 2): (
        [
            RationalMatrix(((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))),
            RationalMatrix(((0, 0, 0, 1), (0, 0, -1, 0), (0, -1, 0, 0), (1, 0, 0, 0))),
        ],
        (1, 1, -1, -1),
    ),
}


def _dense_module(r: int, s: int):
    """(generators, form, construction path) by the dense recursion."""
    br, bs = next(b for b in ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1)) if b[0] <= r and b[1] <= s)
    gens, diag = _DENSE_BASE[(br, bs)]
    r_gens, s_gens = list(gens[:br]), list(gens[br:])
    path = [f"base({br},{bs})"]
    for kind in "r" * (r - br) + "s" * (s - bs):
        ident = RationalMatrix.identity(len(diag))
        r_gens = [kron(g, _E) for g in r_gens]
        s_gens = [kron(g, _E) for g in s_gens]
        if kind == "r":
            r_gens.append(kron(ident, _Q))
            diag = tuple(x for d in diag for x in (d, d))
        else:
            s_gens.append(kron(ident, _P))
            diag = tuple(x for d in diag for x in (d, -d))
        path.append(f"add_{kind}")
    order = [i for i, d in enumerate(diag) if d > 0] + [i for i, d in enumerate(diag) if d < 0]
    gens = [permute(g, order) for g in r_gens + s_gens]
    form = SignatureForm(RationalMatrix.diag([diag[i] for i in order]))
    return gens, form, tuple(path)


def _fresh(m: RationalMatrix) -> RationalMatrix:
    """A copy of m whose monomial form is not known yet."""
    return RationalMatrix(_int_form(m)[0].tolist())


def _same_form(got, want):
    if want is None:
        return got is None
    return got is not None and all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("r, s", SIGNATURES)
def test_index_built_module_equals_the_dense_recursion(r, s):
    module = build_module(CliffordSignature(r, s))
    gens, form, path = _dense_module(r, s)
    assert module.generators == tuple(gens)
    assert module.module_form == form
    assert module.module_form.matrix == form.matrix
    assert module.construction_path == path
    assert module.module_dim == 2 ** (r + s)
    for g in module.generators:
        assert _same_form(_monomial(g), _monomial(_fresh(g)))
        assert g.is_ternary() and _int_form(g)[1] == 1


@pytest.mark.parametrize("r, s", [(3, 1), (6, 0), (2, 4), (4, 4)])
def test_no_generator_is_scanned(monkeypatch, r, s):
    real, scanned = exactlin._monomial, []

    def counted(m):
        if m._mono is None:
            scanned.append(m)
        return real(m)

    monkeypatch.setattr(exactlin, "_monomial", counted)
    module = build_module.__wrapped__(CliffordSignature(r, s))
    assert verify_module.__wrapped__(module)["passed"]
    assert module.generators and scanned  # G_V J_k and the unit are scanned
    assert not any(m is g for m in scanned for g in module.generators)


@pytest.mark.parametrize("size", [0, 1, 3, 15, 16, 17, 40])
@pytest.mark.parametrize("scale", [1, 3, 2**70])
def test_constructor_equals_the_dense_matrix(size, scale):
    rng = random.Random(size * 7 + scale % 5)
    cols = list(range(size))
    rng.shuffle(cols)
    vals = [rng.choice([-1, 1, 2, -5]) * scale for _ in range(size)]
    m = RationalMatrix.signed_permutation(cols, vals)
    rows = [[0] * size for _ in range(size)]
    for i, (j, v) in enumerate(zip(cols, vals)):
        rows[i][j] = v
    dense = RationalMatrix(rows)
    assert m == dense and hash(m) == hash(dense)
    assert _int_form(m)[0].dtype == _int_form(dense)[0].dtype
    assert exactlin._nmax(m) == exactlin._nmax(_fresh(m))
    assert _same_form(_monomial(m), _monomial(_fresh(m)))
    assert (_monomial(m) is None) == (size < exactlin._GATHER_MIN)
    for other in (dense, -dense, dense.transpose()):
        assert m * other == dense * other and other * m == other * dense


@pytest.mark.parametrize(
    "cols, vals",
    [
        ([0, 0, 2], [1, 1, 1]),  # a repeated column
        ([0, 1, 3], [1, 1, 1]),  # a column out of range
        (list(range(16)) + [3], [1] * 17),  # a repeated column at gather size
        ([1, 0], [1, 1, 1]),  # mismatched lengths
        ([1, 0, 2], [1, 1]),
    ],
)
def test_constructor_rejects_a_non_permutation(cols, vals):
    with pytest.raises(DimensionMismatchError):
        RationalMatrix.signed_permutation(cols, vals)


@pytest.mark.parametrize("vals", [[1, 0, -1], [1, True, -1], [1, 0.5, -1], [1, "1", 1]])
def test_constructor_rejects_a_zero_or_non_int_value(vals):
    with pytest.raises(BadInputError):
        RationalMatrix.signed_permutation([2, 0, 1], vals)
