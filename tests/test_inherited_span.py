"""Subspaces that inherit independence through one-to-one maps.

``MatrixSubspace.mapped`` hands a basis on through a map that is one-to-one
on the subspace, with no elimination; its echelon is built when a query
first needs it.  The eta twists, the GL(m) action and the standard
algebra's structure span go through it.  Each such subspace
must answer every query as the eager ``MatrixSubspace`` on the same basis,
and the eliminations that remain in the ``reduce``, ``free`` and
``lattice --pseudo-h`` verbs are counted here.
"""

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from nilforge import cli, lattice, standardform
from nilforge.clifford import CliffordSignature, build_module
from nilforge.errors import DependentBasisError, DimensionMismatchError
from nilforge.exactlin import MatrixSubspace, RationalMatrix, SpanBuilder, rank
from nilforge.lattice import pseudo_H_algebra
from nilforge.nilpotent import NilpotentAlgebra2
from nilforge.standardform import (
    eta_twist,
    find_realizations,
    gl_action,
    reduction_isomorphism,
    standard_algebra,
    structure_space,
)

SIGNATURES = [(r, t - r) for t in range(1, 7) for r in range(t + 1)]
SHAPES = [(m, n) for m in range(2, 7) for n in range(1, min(3, m * (m - 1) // 2) + 1)]


def _count_adds(monkeypatch):
    """Record every vector that ``SpanBuilder.add`` is handed."""
    real, seen = SpanBuilder.add, []

    def counted(self, vec):
        seen.append(vec)
        return real(self, vec)

    monkeypatch.setattr(SpanBuilder, "add", counted)
    return seen


def _unit(m, i, j):
    return RationalMatrix.from_relations([({j: 1} if a == i else {}, 1) for a in range(m)], m)


def _probes(s: MatrixSubspace, rng):
    """Members, non-members, the zero matrix and a matrix of another size."""
    m = s.ambient_dim
    out = list(s.basis) + [RationalMatrix.zeros(m, m), RationalMatrix.identity(m + 1)]
    for _ in range(3):
        coeffs = [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in s.basis]
        inside = s.element(coeffs) if s.dim else RationalMatrix.zeros(m, m)
        out += [inside, inside + _unit(m, rng.randrange(m), rng.randrange(m))]
        loose = RationalMatrix.zeros(m, m)
        for _ in range(m):
            loose = loose + _unit(m, rng.randrange(m), rng.randrange(m)).scale(rng.randint(-2, 2))
        out.append(loose)
    return out


def _assert_answers_as_eager(s: MatrixSubspace, others, rng, monkeypatch):
    """s answers contains, relation, coords and equals as the eager
    subspace on its basis, and builds its echelon once, at the first query."""
    eager = MatrixSubspace(s.ambient_dim, s.basis)
    adds = _count_adds(monkeypatch)
    assert s.contains(s.basis[0]) if s.dim else not s.contains(_unit(s.ambient_dim, 0, 0))
    assert len(adds) == s.dim
    for x in _probes(s, rng):
        assert s.contains(x) == eager.contains(x)
        assert s.relation(x) == eager.relation(x)
        assert s.coords(x) == eager.coords(x)
    assert len(adds) == s.dim
    monkeypatch.undo()
    assert s.equals(eager) and eager.equals(s)
    for other in others:
        assert s.equals(other) == eager.equals(other)
        assert other.equals(s) == other.equals(eager)


def _invertible(rng, m):
    """A permuted unit upper-triangular matrix with a few entries off the
    diagonal, so the images stay small."""
    a = RationalMatrix.identity(m)
    for _ in range(3):
        i, j = sorted(rng.sample(range(m), 2))
        a = a + _unit(m, i, j).scale(rng.choice([-1, 1, 2]))
    order = list(range(m))
    rng.shuffle(order)
    a = RationalMatrix([a.row(i) for i in order])
    assert rank(a) == m
    return a


def _mapped_family(span: MatrixSubspace, p: int, q: int, rng):
    """Both eta twists of span, and the GL(m) action on the left one."""
    left, right = eta_twist(span, p, q, "left"), eta_twist(span, p, q, "right")
    return [left, right, gl_action(_invertible(rng, p + q), left, p, q)]


@pytest.mark.parametrize("r, s", SIGNATURES)
def test_clifford_spans_answer_as_eager_subspaces(r, s, monkeypatch):
    rng = random.Random(r * 10 + s)
    module = build_module(CliffordSignature(r, s))
    span = structure_space(pseudo_H_algebra(module).algebra)
    p, q = module.module_form.p, module.module_form.q
    std = standard_algebra(p, q, MatrixSubspace(module.module_dim, module.generators))
    family = _mapped_family(span, p, q, rng) + [std.algebra.structure_span]
    assert std.algebra.structure_span.basis == std.algebra.structure
    for mapped in family:
        assert mapped._span is None  # no echelon before the first query
        _assert_answers_as_eager(mapped, [span, family[0]], rng, monkeypatch)


def _adapted(rng, m, n):
    while True:
        rows = [[[Fraction(0)] * m for _ in range(m)] for _ in range(n)]
        for c in rows:
            for i in range(m):
                for j in range(i + 1, m):
                    c[i][j] = Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3]))
                    c[j][i] = -c[i][j]
        a = NilpotentAlgebra2.tagged(m=m, n=n, structure=tuple(RationalMatrix(c) for c in rows))
        if a.tag == "adapted":
            return a


@pytest.mark.parametrize("m, n", SHAPES)
def test_seeded_spans_answer_as_eager_subspaces(m, n, monkeypatch):
    rng = random.Random(m * 100 + n)
    a = _adapted(rng, m, n)
    span = structure_space(a)
    for p in range(m + 1):
        for mapped in _mapped_family(span, p, m - p, rng):
            _assert_answers_as_eager(mapped, [span], rng, monkeypatch)
    for real in find_realizations(a):
        target = reduction_isomorphism(a, real["p"], real["q"])[1].algebra
        assert target.structure_span.basis == target.structure
        _assert_answers_as_eager(target.structure_span, [span], rng, monkeypatch)


def test_a_mapped_subspace_adjoins_through_its_echelon():
    s = MatrixSubspace(3, [_unit(3, 0, 1)]).mapped([_unit(3, 1, 2)])
    assert not s.adjoin(_unit(3, 1, 2).scale(5))
    assert s.adjoin(_unit(3, 2, 0))
    assert s.basis == (_unit(3, 1, 2), _unit(3, 2, 0))
    assert s.coords(_unit(3, 2, 0) - _unit(3, 1, 2)) == (-1, 1)


def test_mapped_rejects_a_wrong_count_or_shape():
    s = MatrixSubspace(3, [_unit(3, 0, 1), _unit(3, 1, 2)])
    with pytest.raises(DimensionMismatchError):
        s.mapped([_unit(3, 0, 1)])
    with pytest.raises(DimensionMismatchError):
        s.mapped([_unit(3, 0, 1)] * 3)
    with pytest.raises(DimensionMismatchError):
        s.mapped([_unit(3, 0, 1), _unit(4, 1, 2)])
    with pytest.raises(DimensionMismatchError):
        s.mapped([_unit(3, 0, 1), RationalMatrix([[1, 0, 0], [0, 1, 0]])])
    assert MatrixSubspace(2).mapped([]).dim == 0


def _antisymmetric(m, i, j):
    return _unit(m, i, j) - _unit(m, j, i)


def test_a_handed_on_span_on_the_structure_is_trusted(monkeypatch):
    c = (_antisymmetric(3, 0, 1), _antisymmetric(3, 1, 2))
    span = MatrixSubspace(3, c)
    adds = _count_adds(monkeypatch)
    a = NilpotentAlgebra2(m=3, n=2, structure=c, tag="adapted", span=span)
    assert a.structure_span is span and adds == []


def test_a_span_on_another_basis_is_eliminated_again(monkeypatch):
    c, other = _antisymmetric(3, 0, 1), _antisymmetric(3, 1, 2)
    span = MatrixSubspace(3, [other])
    adds = _count_adds(monkeypatch)
    a = NilpotentAlgebra2(m=3, n=1, structure=(c,), tag="adapted", span=span)
    assert a.structure_span is not span and a.structure_span.basis == (c,)
    assert adds == [c]
    # a basis that is a prefix, or the structure in another order, is not it
    pair = (c, other)
    for wrong in (MatrixSubspace(3, [c]), MatrixSubspace(3, [other, c])):
        b = NilpotentAlgebra2(m=3, n=2, structure=pair, tag="adapted", span=wrong)
        assert b.structure_span is not wrong and b.structure_span.basis == pair


def test_a_dependent_structure_still_raises_with_an_independent_span():
    c, other = _antisymmetric(3, 0, 1), _antisymmetric(3, 1, 2)
    span = MatrixSubspace(3, [c, other])
    with pytest.raises(DependentBasisError):
        NilpotentAlgebra2(m=3, n=2, structure=(c, c.scale(2)), tag="adapted", span=span)
    raw = NilpotentAlgebra2.tagged(m=3, n=2, structure=(c, c.scale(2)), span=span)
    assert raw.tag == "raw" and raw.structure_span is None
    assert NilpotentAlgebra2(m=3, n=2, structure=(c, other), span=span).structure_span is None


def _random_algebra_json(rng, m, n):
    a = _adapted(rng, m, n)
    return a, {"m": m, "n": n, "C": [c.to_json()["entries"] for c in a.structure], "tag": "adapted"}


@pytest.mark.parametrize("m, n", [(3, 2), (5, 3), (6, 3)])
def test_reduce_eliminates_the_structure_span_once(m, n, tmp_path, monkeypatch):
    a, obj = _random_algebra_json(random.Random(m + 7 * n), m, n)
    path = tmp_path / "a.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    adds = _count_adds(monkeypatch)
    with redirect_stdout(io.StringIO()) as out:
        assert cli.main(["reduce", str(path)]) == 0
    assert len(json.loads(out.getvalue())["reductions"]) >= 1
    matrices = [v for v in adds if isinstance(v, RationalMatrix)]
    assert matrices == list(a.structure)


def _adds_inside(monkeypatch, module, name):
    """Record the ``SpanBuilder.add`` calls made inside module.name."""
    real, depth, inside = getattr(module, name), [0], []
    adds = _count_adds(monkeypatch)

    def tracked(*args):
        depth[0] += 1
        start = len(adds)
        try:
            return real(*args)
        finally:
            depth[0] -= 1
            if not depth[0]:
                inside.extend(adds[start:])

    monkeypatch.setattr(module, name, tracked)
    return adds, inside


@pytest.mark.parametrize("p, q", [(2, 1), (3, 2), (0, 4)])
def test_free_eliminates_nothing_after_so_basis(p, q, monkeypatch):
    standardform.free_algebra.cache_clear()
    try:
        adds, inside = _adds_inside(monkeypatch, standardform, "so_basis")
        with redirect_stdout(io.StringIO()):
            assert cli.main(["free", str(p), str(q)]) == 0
    finally:
        monkeypatch.undo()
        standardform.free_algebra.cache_clear()
    k = (p + q) * (p + q - 1) // 2
    assert len(inside) == (k if q == 0 else 2 * k)
    assert len(adds) == len(inside)


def test_pseudo_h_standard_algebra_eliminates_nothing(monkeypatch):
    adds, inside = _adds_inside(monkeypatch, lattice, "standard_algebra")
    with redirect_stdout(io.StringIO()):
        assert cli.main(["lattice", "--pseudo-h", "3", "3"]) == 0
    assert adds and inside == []
