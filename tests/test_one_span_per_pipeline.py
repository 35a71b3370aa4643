"""A J-built algebra's independence is certified once, on W = span{J_i}.

n_{r,s} and the standard algebra R^{p,q} (+) W come from J-maps through the
duality <J_z v, w>_V = <z, [v, w]>_Z, so their C^k are independent exactly
when the J's are.  ``algebra_from_J`` eliminates a list of J's once, into W,
and tags its output on W; ``lattice --pseudo-h`` makes W once and hands it
to both constructors; ``NilpotentAlgebra2.tagged`` decides the tag from one
elimination with no exception raised.  The eliminations are counted here by
wrapping ``SpanBuilder.add``.
"""

import io
from contextlib import redirect_stdout

import pytest

from nilforge import cli, lattice
from nilforge.exactlin import RationalMatrix, SpanBuilder
from nilforge.nilpotent import NilpotentAlgebra2, algebra_from_J

from helpers import _form

SIGNATURES = [(r, t - r) for t in range(1, 5) for r in range(t + 1)] + [(3, 3)]


def _count_adds(monkeypatch):
    """Record (builder id, vector) for every vector ``SpanBuilder.add`` is handed."""
    real, seen = SpanBuilder.add, []

    def counted(self, vec):
        seen.append((id(self), vec))
        return real(self, vec)

    monkeypatch.setattr(SpanBuilder, "add", counted)
    return seen


def _record_raises(monkeypatch):
    """Record every exception raised out of ``NilpotentAlgebra2.__init__``."""
    real, raised = NilpotentAlgebra2.__init__, []

    def init(self, *args, **kwargs):
        try:
            real(self, *args, **kwargs)
        except Exception as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(NilpotentAlgebra2, "__init__", init)
    return raised


def _during(monkeypatch, module, name, adds):
    """Record how many adds each call of module.name makes."""
    real, counts = getattr(module, name), []

    def wrapped(*args, **kwargs):
        before = len(adds)
        out = real(*args, **kwargs)
        counts.append(len(adds) - before)
        return out

    monkeypatch.setattr(module, name, wrapped)
    return counts


def _quiet(argv):
    with redirect_stdout(io.StringIO()):
        return cli.main(argv)


@pytest.mark.parametrize("r, s", SIGNATURES)
def test_lattice_pseudo_h_eliminates_span_J_once(r, s, monkeypatch):
    adds = _count_adds(monkeypatch)
    in_standard = _during(monkeypatch, lattice, "standard_algebra", adds)
    assert _quiet(["lattice", "--pseudo-h", str(r), str(s)]) == 0
    assert len(adds) == r + s
    assert len({builder for builder, _ in adds}) == 1
    assert in_standard == [0]


@pytest.mark.parametrize("r, s", SIGNATURES)
def test_build_eliminates_the_J_list_once(r, s, monkeypatch):
    adds = _count_adds(monkeypatch)
    assert _quiet(["build", str(r), str(s)]) == 0
    assert len(adds) == r + s
    assert len({builder for builder, _ in adds}) == 1


def _rotation():
    return RationalMatrix([[0, 1], [-1, 0]])


def test_dependent_J_list_gives_a_raw_algebra_in_one_elimination(monkeypatch):
    j = _rotation()
    adds, raised = _count_adds(monkeypatch), _record_raises(monkeypatch)
    ma = algebra_from_J([j, j], _form(1, 1), _form(1, 1))
    assert ma.algebra.tag == "raw" and ma.algebra.structure_span is None
    assert [vec for _, vec in adds] == [j, j]
    assert len({builder for builder, _ in adds}) == 1
    assert raised == []


def test_tagged_on_a_dependent_structure_is_raw_in_one_elimination(monkeypatch):
    c = _rotation()
    adds, raised = _count_adds(monkeypatch), _record_raises(monkeypatch)
    a = NilpotentAlgebra2.tagged(m=2, n=2, structure=(c, c.scale(2)))
    assert a.tag == "raw" and a.structure_span is None
    assert [vec for _, vec in adds] == [c, c.scale(2)]
    assert len({builder for builder, _ in adds}) == 1
    assert raised == []


def test_independent_J_list_is_adapted_on_its_own_elimination(monkeypatch):
    j = _rotation()
    adds, raised = _count_adds(monkeypatch), _record_raises(monkeypatch)
    ma = algebra_from_J([j], _form(1, 1), _form(-1))
    assert ma.algebra.tag == "adapted"
    assert ma.algebra.structure_span.basis == ma.algebra.structure
    assert [vec for _, vec in adds] == [j] and raised == []
