"""The two bracket tables of ``nilforge.triple`` against the direct algorithms.

The reference functions below compute every commutator and span query
afresh: the centre from all dim W^2 brackets, each Cartan inclusion from its
own commutators and ``contains`` calls, and the ad matrices from dim L^2
commutators and ``coords`` calls.  The library reads W's pair brackets and
L's structure constants once; its answers must not change.
"""

import pytest

from nilforge import triple
from nilforge.clifford import CliffordSignature, build_module
from nilforge.errors import NotClosedError
from nilforge.exactlin import (
    MatrixSubspace,
    RationalMatrix,
    commutator,
    independent_subset,
    kernel_basis,
    signature,
    trace_pairing,
)
from nilforge.standardform import so_basis


# ---------------------------------------------------------------------------
# reference: every bracket and span query computed where it is used


def ref_is_lie_triple(w):
    inner = [
        commutator(w.basis[b], w.basis[c])
        for b in range(w.dim)
        for c in range(b + 1, w.dim)
    ]
    return all(w.contains(commutator(a, m)) for a in w.basis for m in inner)


def ref_triple_center(w):
    if w.dim == 0:
        return MatrixSubspace(w.ambient_dim, [])
    cols = []
    for a in range(w.dim):
        col = []
        for b in range(w.dim):
            col.extend(commutator(w.basis[a], w.basis[b]).entries())
        cols.append(col)
    stacked = RationalMatrix(cols).transpose()
    return MatrixSubspace(w.ambient_dim, [w.element(v) for v in kernel_basis(stacked)])


def ref_ad_matrices(l):
    ads = []
    for x in l.basis:
        cols = []
        for y in l.basis:
            coords = l.coords(commutator(x, y))
            if coords is None:
                raise NotClosedError("subspace is not closed under the bracket")
            cols.append(list(coords))
        ads.append(RationalMatrix(cols).transpose())
    return ads


def ref_killing_form(l):
    ads = ref_ad_matrices(l)
    return trace_pairing(ads, ads)


def ref_generated_algebra(w):
    center = ref_triple_center(w)
    if not ref_is_lie_triple(w):
        return dict(is_triple=False, center_dim=center.dim, L_basis=w.basis, L_dim=w.dim,
                    killing=None, killing_signature=None, cartan_certified=False)
    pair_brackets = [
        commutator(w.basis[a], w.basis[b])
        for a in range(w.dim)
        for b in range(a + 1, w.dim)
    ]
    t = independent_subset(w.ambient_dim, pair_brackets)
    t_basis = t.basis
    l_basis = independent_subset(w.ambient_dim, w.basis + t_basis)
    cartan = all(
        t.contains(commutator(t_basis[a], t_basis[b]))
        for a in range(len(t_basis))
        for b in range(a + 1, len(t_basis))
    )
    cartan = cartan and all(w.contains(commutator(x, p)) for x in t_basis for p in w.basis)
    cartan = cartan and all(t.contains(c) for c in pair_brackets)
    killing = ref_killing_form(l_basis)
    return dict(is_triple=True, center_dim=center.dim, L_basis=l_basis.basis,
                L_dim=l_basis.dim, killing=killing, killing_signature=signature(killing),
                cartan_certified=cartan)


def ref_decomposition_checks(w):
    if not ref_is_lie_triple(w):
        return {"is_triple": False}
    l = independent_subset(
        w.ambient_dim,
        w.basis + tuple(commutator(w.basis[a], w.basis[b])
                        for a in range(w.dim) for b in range(a + 1, w.dim)),
    )
    ads = ref_ad_matrices(l)
    stacked = RationalMatrix(
        [sum(([x for x in ad.column(j)] for ad in ads), []) for j in range(l.dim)]
    ).transpose()
    z_l = [l.element(v) for v in kernel_basis(stacked)]
    ll = independent_subset(
        l.ambient_dim,
        [commutator(l.basis[a], l.basis[b]) for a in range(l.dim) for b in range(a + 1, l.dim)],
    ).basis
    span_dim = independent_subset(l.ambient_dim, z_l + list(ll)).dim
    direct_sum = span_dim == len(z_l) + len(ll) and span_dim == l.dim
    zw = ref_triple_center(w).dim
    return {
        "is_triple": True,
        "center_W_dim": zw,
        "center_L_dim": len(z_l),
        "centers_equal_dim": zw == len(z_l),
        "L_dim": l.dim,
        "derived_L_dim": len(ll),
        "L_is_center_plus_derived": direct_sum,
        "trivial_center_implies_perfect": (zw != 0) or (len(ll) == l.dim),
    }


# ---------------------------------------------------------------------------
# the subspaces compared


def _so3_cross_basis():
    l1 = RationalMatrix(((0, 0, 0), (0, 0, -1), (0, 1, 0)))
    l2 = RationalMatrix(((0, 0, 1), (0, 0, 0), (-1, 0, 0)))
    l3 = RationalMatrix(((0, -1, 0), (1, 0, 0), (0, 0, 0)))
    return [l1, l2, l3]


def _clifford_ws():
    return {
        f"clifford({r},{total - r})": triple.clifford_triple_system(
            build_module(CliffordSignature(r, total - r))
        )
        for total in range(1, 5)
        for r in range(total + 1)
    }


def _other_ws():
    so4 = so_basis(4, 0).basis
    a = RationalMatrix(((0, 1, 0), (0, 0, 0), (0, 0, 0)))
    b = RationalMatrix(((0, 0, 1), (1, 0, 0), (0, 0, 0)))
    ws = {
        "so3": MatrixSubspace(3, _so3_cross_basis()),  # W = [W, W]
        "so3-plane": MatrixSubspace(3, _so3_cross_basis()[:2]),
        "so4-commuting": MatrixSubspace(4, [so4[0], so4[5]]),
        "non-triple": MatrixSubspace(3, [a, b]),
        "one-dim": MatrixSubspace(3, [a]),
        "zero": MatrixSubspace(3),
    }
    for p, q in ((2, 1), (2, 2), (3, 1)):
        ws[f"so({p},{q})"] = so_basis(p, q)
    return ws


CASES = {**_clifford_ws(), **_other_ws()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_tables_match_reference(name):
    w = CASES[name]
    assert triple.is_lie_triple(w) == ref_is_lie_triple(w)
    assert triple.triple_center(w).basis == ref_triple_center(w).basis
    report = triple.generated_algebra(w)
    ref = ref_generated_algebra(w)
    got = dict(
        is_triple=report.is_triple,
        center_dim=report.center_dim,
        L_basis=report.L_basis.basis,
        L_dim=report.L_dim,
        killing=report.killing,
        killing_signature=report.killing_signature,
        cartan_certified=report.cartan_certified,
    )
    assert got == ref
    assert report.special_split is None
    assert triple.decomposition_checks(w) == ref_decomposition_checks(w)
    if report.is_triple:
        assert triple.killing_form(report.L_basis) == ref_killing_form(report.L_basis)


def test_cases_cover_the_interesting_shapes():
    assert not triple.is_lie_triple(CASES["non-triple"])
    # so(3): W meets [W, W], so t adds nothing to L
    assert triple.generated_algebra(CASES["so3"]).L_dim == 3
    assert triple.triple_center(CASES["so4-commuting"]).dim == 2
    assert triple.decomposition_checks(CASES["so4-commuting"])["center_L_dim"] == 2


def test_killing_form_rejects_non_closed_span_like_reference():
    plane = CASES["so3-plane"]
    for f in (triple.killing_form, ref_killing_form):
        with pytest.raises(NotClosedError):
            f(plane)


# ---------------------------------------------------------------------------
# each table is computed once


@pytest.fixture
def calls(monkeypatch):
    counts = {"commutator": 0, "span": 0}

    def counted(f, key):
        def g(*args, **kwargs):
            counts[key] += 1
            return f(*args, **kwargs)

        return g

    monkeypatch.setattr(triple, "commutator", counted(triple.commutator, "commutator"))
    for name in ("contains", "coords"):
        monkeypatch.setattr(MatrixSubspace, name, counted(getattr(MatrixSubspace, name), "span"))
    return counts


@pytest.mark.parametrize(
    "sig, max_commutators, max_span_queries",
    [((4, 1), 165, 180), ((3, 3), 315, 336)],
)
def test_call_counts(calls, sig, max_commutators, max_span_queries):
    w = triple.clifford_triple_system(build_module(CliffordSignature(*sig)))
    triple.generated_algebra(w)
    generated = dict(calls)
    assert generated["commutator"] <= max_commutators
    assert generated["span"] <= max_span_queries
    calls.update(commutator=0, span=0)
    triple.decomposition_checks(w)
    # decomposition_checks reads the ad matrices of its own generated_algebra
    assert calls == generated
