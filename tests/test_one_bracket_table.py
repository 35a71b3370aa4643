"""L's one bracket table in ``nilforge.triple`` against the two-table version.

``_pair_table`` opens L = W + [W, W] with W's basis and adjoins each
[w_a, w_b], a < b, in turn: an enlarging bracket is L's new basis element,
whose relation needs no reduction, and only a dependent one is reduced again.
The W x W block of L's table is then read by the centre of W and by t, and
``_ad_matrices`` forms and reduces only the brackets the table lacks.  The
reference below is a verbatim copy of the version that kept two tables
(W's pair brackets, then L's), formed each [w_a, w_b] twice and reduced it
three times; every answer must be the same, with one commutator per pair of
L's basis.
"""

import pytest

from nilforge import exactlin, triple
from nilforge.clifford import CliffordSignature, build_module
from nilforge.errors import NotClosedError
from nilforge.exactlin import (
    MatrixSubspace,
    RationalMatrix,
    _vec_stack,
    commutator,
    independent_subset,
    kernel_basis,
    lin_combs,
    signature,
    trace_pairing,
)
from nilforge.standardform import so_basis
from nilforge.triple import TripleSystemReport, _brackets_inside
from test_triple_tables import CASES

# ---------------------------------------------------------------------------
# reference: the two-table version


def _parent_pair_brackets(w):
    """W's bracket table {(a, b): [w_a, w_b]} for a < b."""
    return {
        (a, b): commutator(w.basis[a], w.basis[b])
        for a in range(w.dim)
        for b in range(a + 1, w.dim)
    }


def _parent_pair_table(w):
    """L = W + [W, W], opened by W's basis, and each [w_a, w_b], a < b, over L's basis."""
    pairs = _parent_pair_brackets(w)
    l = independent_subset(w.ambient_dim, w.basis + tuple(pairs.values()))
    return l, {ab: l.relation(c) for ab, c in pairs.items()}


def _parent_center(w, l, rels):
    """Kernel of x -> sum_a x_a vec(B_a), where row b of B_a is the table's
    relation of [w_a, w_b] = -[w_b, w_a] over L's basis ([w_a, w_a] = 0)."""
    rows = [[({}, 1)] * w.dim for _ in range(w.dim)]  # rows[a][b] = [w_a, w_b]
    for (a, b), (num, den) in rels.items():
        rows[a][b], rows[b][a] = (num, den), ({k: -x for k, x in num.items()}, den)
    blocks = [RationalMatrix.from_relations(r, l.dim) for r in rows]
    kernel = RationalMatrix(kernel_basis(_vec_stack(blocks).transpose()))
    return MatrixSubspace(w.ambient_dim, lin_combs(kernel, w.basis, w.ambient_dim))


def _parent_ad_matrices(l):
    """ad_x in L's own basis coordinates for each basis x, from one bracket
    per basis pair x < y as an integer relation; raises if L is not closed."""
    cols = [[({}, 1)] * l.dim for _ in range(l.dim)]  # cols[x][y] = [l_x, l_y]
    for x in range(l.dim):
        for y in range(x + 1, l.dim):
            rel = l.relation(commutator(l.basis[x], l.basis[y]))
            if rel is None:
                raise NotClosedError("subspace is not closed under the bracket")
            cols[x][y], cols[y][x] = rel, ({k: -c for k, c in rel[0].items()}, rel[1])
    return [RationalMatrix.from_relations(c, l.dim).transpose() for c in cols]


def _parent_generated(w):
    """generated_algebra's report and L's ad matrices, from the two tables."""
    l, rels = _parent_pair_table(w)
    center_dim = _parent_center(w, l, rels).dim
    not_triple = TripleSystemReport(False, center_dim, L_basis=w, L_dim=w.dim), []
    try:
        ads = _parent_ad_matrices(l)
    except NotClosedError:
        return not_triple
    p = RationalMatrix.from_relations([({a: 1}, 1) for a in range(w.dim)], l.dim)
    t = RationalMatrix.from_relations(list(rels.values()), l.dim)
    if not _brackets_inside(ads, t, p, p):
        return not_triple
    killing = trace_pairing(ads, ads)
    return TripleSystemReport(True, center_dim, l, l.dim, killing, signature(killing)), ads


# ---------------------------------------------------------------------------
# the subspaces compared


def _clifford_sigs(low, high):
    return [(r, total - r) for total in range(low, high + 1) for r in range(total + 1)]


def _sig_id(sig):
    return "%d,%d" % sig


def _clifford_w(sig):
    return triple.clifford_triple_system(build_module(CliffordSignature(*sig)))


def _fields(report):
    return (
        report.is_triple,
        report.center_dim,
        report.L_basis.basis,
        report.L_dim,
        report.killing,
        report.killing_signature,
        report.cartan_certified,
    )


def _assert_same(w):
    report, ads = triple._generated(w)
    ref_report, ref_ads = _parent_generated(w)
    assert _fields(report) == _fields(ref_report)
    assert ads == ref_ads
    assert _fields(triple.generated_algebra(w)) == _fields(ref_report)
    assert triple.triple_center(w).basis == _parent_center(w, *_parent_pair_table(w)).basis


@pytest.mark.parametrize("sig", _clifford_sigs(1, 6), ids=_sig_id)
def test_clifford_table_matches_two_tables(sig):
    _assert_same(_clifford_w(sig))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cases_match_two_tables(name):
    _assert_same(CASES[name])


def test_so3_has_dependent_pair_brackets():
    # so(3)'s brackets lie in W, so L = W and each pair takes the relation branch
    w = so_basis(3, 0)
    l, _ = triple._pair_table(w)
    assert l.basis == w.basis
    _assert_same(w)
    assert triple.generated_algebra(w).is_triple


def test_table_fills_the_w_block_both_ways():
    w = _clifford_w((2, 1))
    l, table = triple._pair_table(w)
    _, rels = _parent_pair_table(w)
    n = w.dim
    assert len(table) == l.dim and all(len(row) == l.dim for row in table)
    for x in range(l.dim):
        for y in range(l.dim):
            if x == y:
                assert table[x][y] == ({}, 1)
            elif x < n and y < n:
                row = RationalMatrix.from_relations([table[x][y]], l.dim)
                ref = RationalMatrix.from_relations([rels[min(x, y), max(x, y)]], l.dim)
                assert row == (ref if x < y else -ref)
            else:
                assert table[x][y] is None


# ---------------------------------------------------------------------------
# each bracket formed once, and reduced no more than it must be


@pytest.fixture
def counts(monkeypatch):
    seen = {"commutator": 0, "relation": 0, "reduce": 0}

    def counted(f, key):
        def g(*args, **kwargs):
            seen[key] += 1
            return f(*args, **kwargs)

        return g

    monkeypatch.setattr(triple, "commutator", counted(triple.commutator, "commutator"))
    monkeypatch.setattr(
        MatrixSubspace, "relation", counted(MatrixSubspace.relation, "relation")
    )
    monkeypatch.setattr(
        exactlin.SpanBuilder, "_reduce", counted(exactlin.SpanBuilder._reduce, "reduce")
    )
    return seen


@pytest.mark.parametrize("sig", [*_clifford_sigs(2, 6), (8, 0)], ids=_sig_id)
def test_clifford_report_forms_each_bracket_once(counts, sig):
    module = build_module(CliffordSignature(*sig))
    counts.update(commutator=0)
    report = triple._clifford_generated.__wrapped__(module)[0]
    assert counts["commutator"] == report.L_dim * (report.L_dim - 1) // 2


@pytest.mark.parametrize("sig", [(4, 1), (5, 0), (3, 3)], ids=_sig_id)
def test_reductions_fall_by_n_times_n_minus_one(counts, sig):
    # W's n(n-1)/2 pair brackets each lose two reductions: the relation in
    # the old pair table and the one in the old ad table
    w = _clifford_w(sig)
    counts.update(reduce=0)
    triple._generated(w)
    reductions = counts["reduce"]
    counts.update(reduce=0)
    _parent_generated(w)
    assert counts["reduce"] - reductions == w.dim * (w.dim - 1)


@pytest.mark.parametrize("sig", _clifford_sigs(1, 5), ids=_sig_id)
def test_pair_table_reduces_no_clifford_bracket_twice(counts, sig):
    # every [J_a, J_b] enlarges L, so no relation is asked for
    w = _clifford_w(sig)
    counts.update(relation=0)
    l, _ = triple._pair_table(w)
    assert l.dim == w.dim + w.dim * (w.dim - 1) // 2
    assert counts["relation"] == 0


def test_pair_table_relates_each_dependent_bracket_once(counts):
    w = so_basis(3, 0)
    counts.update(relation=0)
    triple._pair_table(w)
    assert counts["relation"] == w.dim * (w.dim - 1) // 2 == 3


def test_ad_matrices_alone_builds_the_whole_table(counts):
    # killing_form, generated_ideal and ideal_probe hand in no table
    l = triple.generated_algebra(_clifford_w((2, 1))).L_basis
    counts.update(commutator=0)
    assert triple._ad_matrices(l) == _parent_ad_matrices(l)
    assert counts["commutator"] == l.dim * (l.dim - 1) // 2
    with pytest.raises(NotClosedError):
        triple._ad_matrices(CASES["so3-plane"])
