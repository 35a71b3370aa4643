"""The two bracket tables of ``nilforge.triple`` against the direct algorithms.

The reference functions below compute every commutator and span query
afresh: the centre from all dim W^2 brackets, each Cartan inclusion from its
own commutators and ``contains`` calls, the ad matrices from dim L^2
commutators and ``coords`` calls, and generated ideals from N x N
commutators adjoined to a span of N x N matrices.  The library reads W's
pair brackets and L's structure constants once; its answers must not change.
"""

import random

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


def ref_generated_ideal(l, x):
    if not l.contains(x):
        raise NotClosedError("element is outside L")
    ideal = MatrixSubspace(l.ambient_dim)
    ideal.adjoin(x)
    frontier = [x]
    while frontier:
        new = []
        for s in frontier:
            for b in l.basis:
                if ideal.dim == l.dim:
                    return ideal
                c = commutator(b, s)
                if ideal.adjoin(c):
                    new.append(c)
        frontier = new
    return ideal


def ref_ideal_probe(l, seed, trials=8):
    """The probe's dict, and (x, ideal of x) for every trial it ran."""
    rng = random.Random(seed)
    ideals = []
    for trial in range(trials):
        coeffs = [rng.randint(-3, 3) for _ in range(l.dim)]
        if all(c == 0 for c in coeffs):
            coeffs[rng.randrange(l.dim)] = 1
        x = l.element(coeffs)
        ideal = ref_generated_ideal(l, x)
        ideals.append((x, ideal))
        if 0 < ideal.dim < l.dim:
            return {"trial": trial, "coefficients": coeffs, "ideal_dim": ideal.dim}, ideals
    return None, ideals


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
        # in gl(2): L = W + [W, W] closes, yet [t, p] leaves W
        "closed-non-triple": MatrixSubspace(
            2, [RationalMatrix(((1, 0), (1, 0))), RationalMatrix(((0, 1), (1, 0)))]
        ),
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
    assert triple.generated_algebra(w).is_triple == ref_is_lie_triple(w)
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
    assert not triple.generated_algebra(CASES["non-triple"]).is_triple
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
# generated ideals and the probe, grown in L-coordinates


PROBE_CASES = [
    *((r, total - r, range(10)) for total in range(1, 4) for r in range(total + 1)),
    *((r, 4 - r, range(2)) for r in range(5)),
]


@pytest.mark.parametrize("r, s, seeds", PROBE_CASES, ids=[f"{r},{s}" for r, s, _ in PROBE_CASES])
def test_ideal_probe_matches_reference(r, s, seeds):
    l = triple.clifford_triple_report(build_module(CliffordSignature(r, s))).L_basis
    for seed in seeds:
        probe, ideals = ref_ideal_probe(l, seed)
        assert triple.ideal_probe(l, seed) == probe
        for x, ideal in ideals:
            assert triple.generated_ideal(l, x).basis == ideal.basis


@pytest.mark.parametrize("sig", [(3, 0), (1, 2)])
def test_special_split_matches_reference(sig):
    module = build_module(CliffordSignature(*sig))
    j1, j2, j3 = module.generators
    split = triple.clifford_triple_report(module).special_split
    for part, lam in zip(split, (1, -1)):
        h = j1 + (j2 * j3).scale(lam)
        assert part.basis == (h, commutator(h, j2), commutator(h, j3))


def _heisenberg():
    e12, e13, e23 = (
        RationalMatrix([[int((i, j) == pos) for j in range(3)] for i in range(3)])
        for pos in ((0, 1), (0, 2), (1, 2))
    )
    return MatrixSubspace(3, [e12, e13, e23]), e12, e13


def test_generated_ideal_finds_proper_ideal_of_heisenberg():
    # strictly upper-triangular 3 x 3: [e23, e12] = -e13, and e13 is central
    l, e12, e13 = _heisenberg()
    ideal = triple.generated_ideal(l, e12)
    assert ideal.equals(MatrixSubspace(3, [e12, e13]))
    assert ideal.basis == ref_generated_ideal(l, e12).basis
    probe = triple.ideal_probe(l, seed=0)
    assert probe["ideal_dim"] == 2
    assert probe == ref_ideal_probe(l, 0)[0]


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


@pytest.mark.parametrize("trials", [1, 8, 20])
def test_ideals_read_only_the_ad_table(calls, trials):
    l = triple.clifford_triple_report(build_module(CliffordSignature(2, 1))).L_basis
    table = l.dim * (l.dim - 1) // 2
    calls.update(commutator=0)
    triple.ideal_probe(l, seed=0, trials=trials)
    assert calls["commutator"] == table
    calls.update(commutator=0)
    triple.generated_ideal(l, l.element(range(l.dim)))
    assert calls["commutator"] == table


def test_clifford_triple_report_builds_the_ad_table_once(calls, monkeypatch):
    module = build_module(CliffordSignature(3, 0))
    w = triple.clifford_triple_system(module)
    triple.generated_algebra(w)
    generated = calls["commutator"]
    calls.update(commutator=0)
    tables = []
    ad_matrices = triple._ad_matrices
    monkeypatch.setattr(
        triple, "_ad_matrices", lambda l, *args: tables.append(l) or ad_matrices(l, *args)
    )
    report = triple.clifford_triple_report.__wrapped__(module)
    assert report.special_split is not None
    assert len(tables) == 1
    # the split adds no commutator to those of generated_algebra
    assert calls["commutator"] == generated


def _L_closes(w):
    l, _ = triple._pair_table(w)
    try:
        triple._ad_matrices(l)
    except NotClosedError:
        return False
    return True


def test_triple_test_fails_both_ways():
    # L not closed (the table raises), or closed with [t, p] outside p
    names = ("non-triple", "closed-non-triple")
    assert [_L_closes(CASES[name]) for name in names] == [False, True]
    for name in names:
        assert not triple.generated_algebra(CASES[name]).is_triple and not ref_is_lie_triple(CASES[name])


@pytest.mark.parametrize("sig, commutators", [((4, 1), 105), ((3, 3), 210)])
def test_triple_test_reads_the_ad_table(calls, sig, commutators):
    # L's table, each bracket once, and no [w_a, [w_b, w_c]] besides
    w = triple.clifford_triple_system(build_module(CliffordSignature(*sig)))
    report = triple.generated_algebra(w)
    assert report.is_triple and report.cartan_certified
    pairs = report.L_dim * (report.L_dim - 1) // 2
    assert calls["commutator"] == pairs == commutators
