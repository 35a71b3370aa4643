"""``reduce`` in one pass over its realizations: its bookkeeping and its costs.

``standardform.reductions`` reads one Gram and one inertia per p off a single
``eta_pairings`` product, builds each realization's standard algebra through
``algebra_from_J`` on the left twist, and certifies it by multiplying back,
G_p C'_p = -C, one ``lin_combs`` product per realization.  The per-p flow
copied here (the left twist, its ``trace_gram``, a ``SignatureForm`` on it,
``algebra_from_J`` and a ``lin_combs`` check with G^{-1}) shares
``algebra_from_J`` with the verb, so its byte comparisons check which p are
listed, with which forms, T's and output text, not how C'_p is built; the
independent reference for that is ``tests/test_reduce_flow.py::_copied_flow``.
The file checks the verb's text against the copy on every shape of the
benchmark's ``reduce-small`` inputs over several seeds, on algebras with
degenerate p and on Grams past int64; that ``reductions`` lists what
``find_realizations`` lists and agrees with its one-p view
``reduction_isomorphism``, which keeps its errors; and that a call takes one
inertia per p, no ``trace_pairing`` and one inverse per realization.
"""

import io
import json
import random
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from nilforge import cli, exactlin
from nilforge.errors import (
    DegenerateWError,
    DependentBasisError,
    DimError,
    HomomorphismError,
    NotAdaptedError,
)
from nilforge.exactlin import (
    RationalMatrix,
    SignatureForm,
    block_diag,
    eta_pairings,
    lin_combs,
    signature,
    trace_gram,
)
from nilforge.nilpotent import NilpotentAlgebra2, algebra_from_J
from nilforge.standardform import (
    eta_twist,
    reduction_isomorphism,
    reductions,
    structure_space,
)

# every (m, n, d) of the benchmark's reduce-small inputs: 2 <= m <= 6,
# 1 <= n <= min(3, C(m, 2)), entries in {-2..2} / d
SHAPES = [
    (m, n, d)
    for m in range(2, 7)
    for n in range(1, min(3, m * (m - 1) // 2) + 1)
    for d in (1, 2, 3)
]
SEEDS = (701, 702, 703)


def _per_p_find_realizations(a):
    out = []
    grams = eta_pairings(a.structure, range(a.m + 1))
    for p, gram in enumerate(grams):
        sp, sq, nullity = signature(gram)
        if nullity == 0:
            out.append({"p": p, "q": a.m - p, "signature": (sp, sq)})
    return out


def _per_p_standard_algebra(p, q, w):
    gram = trace_gram(w)
    form_z = SignatureForm(gram)
    if not form_z.is_nondegenerate():
        raise DegenerateWError("trace form degenerates on W")
    return algebra_from_J(w, SignatureForm.standard(p, q), form_z).algebra


def _per_p_reduction(a, p, q):
    target = _per_p_standard_algebra(p, q, eta_twist(structure_space(a), p, q, "left"))
    neg_g_inv = -target.form_Z.inverse_matrix()
    t = block_diag(RationalMatrix.identity(a.m), neg_g_inv)
    if tuple(lin_combs(neg_g_inv, a.structure, a.m)) != target.structure:
        raise HomomorphismError("reduction certificate failed; convention bug")
    return t, target


def _per_p_text(a) -> str:
    """The reduce verb's stdout as the per-p flow printed it."""
    realizations = _per_p_find_realizations(a)
    steps = []
    for real in realizations:
        t, target = _per_p_reduction(a, real["p"], real["q"])
        steps.append({**real, "T": t, "standard_structure": list(target.structure)})
    return cli.canonical_json({"realizations": realizations, "reductions": steps})


def _algebra(rng, m, n, values, scale=1):
    """A seeded adapted algebra, as the JSON object ``reduce`` reads."""
    while True:
        cs = []
        for _ in range(n):
            c = [[Fraction(0)] * m for _ in range(m)]
            for i in range(m):
                for j in range(i + 1, m):
                    c[i][j] = rng.choice(values) * scale
                    c[j][i] = -c[i][j]
            cs.append(RationalMatrix(c))
        try:
            return NilpotentAlgebra2(m=m, n=n, structure=tuple(cs), tag="adapted").to_json()
        except DependentBasisError:
            pass


def _verb(tmp_path, obj) -> tuple[int, str]:
    path = tmp_path / "a.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    with redirect_stdout(io.StringIO()) as out:
        code = cli.main(["reduce", str(path)])
    return code, out.getvalue()


def _assert_one_pass_prints_the_per_p_text(tmp_path, obj) -> int:
    """The verb's text is the per-p flow's; returns the count of degenerate p."""
    a = NilpotentAlgebra2.from_json(obj)
    code, text = _verb(tmp_path, obj)
    assert (code, text) == (0, _per_p_text(a))
    return a.m + 1 - len(json.loads(text)["realizations"])


@pytest.mark.parametrize("m, n, d", SHAPES)
def test_every_reduce_small_shape_over_three_seeds(m, n, d, tmp_path):
    values = [Fraction(k, d) for k in range(-2, 3)]
    for seed in SEEDS:
        rng = random.Random(f"{seed} {m} {n} {d}")
        _assert_one_pass_prints_the_per_p_text(tmp_path, _algebra(rng, m, n, values))


def test_algebras_with_degenerate_p(tmp_path):
    # E_12 - E_21 + E_34 - E_43 is null for the trace form at p = 1 and p = 3
    c = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    obj = {"m": 4, "n": 1, "C": [[[str(x) for x in r] for r in c]], "tag": "adapted"}
    assert _assert_one_pass_prints_the_per_p_text(tmp_path, obj) == 2
    rng = random.Random(46)
    skipped = 0
    for m in range(3, 7):
        for n in (1, 2, 3):
            for _ in range(3):
                obj = _algebra(rng, m, n, [-1, 0, 0, 1])
                skipped += _assert_one_pass_prints_the_per_p_text(tmp_path, obj)
    assert skipped > 0


@pytest.mark.parametrize("scale", [2**20, 2**40])
def test_grams_past_int64(scale, tmp_path):
    # entries of 2**20 make Gram entries of 2**40 and more, past 2**31, so the
    # products of G with C' take Python ints; 2**40 makes the Grams themselves
    rng = random.Random(scale)
    for m, n in [(3, 2), (5, 3), (6, 2)]:
        obj = _algebra(rng, m, n, [Fraction(k, 3) for k in range(-2, 3)], scale)
        a = NilpotentAlgebra2.from_json(obj)
        grams = eta_pairings(a.structure, range(a.m + 1))
        assert max(abs(x) for g in grams for x in g.entries()) >= 2**31
        _assert_one_pass_prints_the_per_p_text(tmp_path, obj)


def test_reductions_lists_what_find_realizations_lists():
    rng = random.Random(4601)
    for m, n in [(2, 1), (4, 2), (6, 3)]:
        a = NilpotentAlgebra2.from_json(_algebra(rng, m, n, [-2, -1, 0, 1, 2]))
        found = reductions(a)
        assert [real for real, _, _ in found] == _per_p_find_realizations(a)
        for real, t, target in found:
            t_ref, ref = _per_p_reduction(a, real["p"], real["q"])
            assert t == t_ref and target.algebra.structure == ref.structure
            assert target.gram_W == trace_gram(target.W)
            t_one, one = reduction_isomorphism(a, real["p"], real["q"])
            assert t_one == t and one.algebra == target.algebra


def test_the_one_p_view_keeps_its_errors():
    c = RationalMatrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    a = NilpotentAlgebra2(m=4, n=1, structure=(c,), tag="adapted")
    reduction_isomorphism(a, 2, 2)
    for p, q in [(1, 2), (2, 3), (-1, 5), (5, -1)]:
        with pytest.raises(DimError):
            reduction_isomorphism(a, p, q)
    for p in (1, 3):
        with pytest.raises(DegenerateWError):
            reduction_isomorphism(a, p, 4 - p)
    with pytest.raises(NotAdaptedError):
        reduction_isomorphism(NilpotentAlgebra2(m=4, n=1, structure=(c,)), 2, 2)


def _counted(monkeypatch, name):
    """Count the calls of exactlin's ``name`` from every package module."""
    real, calls = getattr(exactlin, name), []

    def counted(*args):
        calls.append(1)
        return real(*args)

    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("nilforge") and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_one_inertia_per_p_no_trace_pairing_and_one_inverse_per_realization(
    monkeypatch, tmp_path
):
    rng = random.Random(4602)
    for m, n in [(2, 1), (3, 2), (4, 3), (5, 2), (6, 3)]:
        obj = _algebra(rng, m, n, [-2, -1, 0, 1, 2])  # no forms: loading takes no inertia
        names = ("signature", "trace_pairing", "inverse")
        counts = {name: _counted(monkeypatch, name) for name in names}
        code, text = _verb(tmp_path, obj)
        monkeypatch.undo()
        assert code == 0
        realized = len(json.loads(text)["realizations"])
        assert {name: len(c) for name, c in counts.items()} == {
            "signature": m + 1,
            "trace_pairing": 0,
            "inverse": realized,
        }
