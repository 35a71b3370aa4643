"""Lie triple systems inside so(p,q) and their generated algebras.

A subspace W of matrices is a Lie triple system when [W, [W, W]] lies back
in W; it generates L = W + [W, W] with the Cartan pair (p, t) = (W, [W, W]).
Every certificate reads one of two tables, each computed once: W's pair
brackets [w_a, w_b], a < b (the centre of W, t and L's basis), and L's
structure constants as ad matrices in L's own coordinates (the triple test
as an exact rank test, the Killing form, the centre of L and [L, L],
generated ideals, the seeded probe for proper ideals, certified mod p where
it can be, and the two-ideal split of the Clifford signatures (3,0) and
(1,2)).  W is a triple system exactly when L is closed under the bracket and
[t, p] lies in p, and the other Cartan inclusions follow from that one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import lru_cache

from .clifford import CliffordModule
from .errors import HomomorphismError, NotClosedError
from .exactlin import (
    MatrixSubspace,
    RationalMatrix,
    _closure,
    _vec_stack,
    closure_is_full,
    commutator,
    eta,
    independent_subset,
    kernel_basis,
    lin_combs,
    rank,
    signature,
    trace_gram,
    trace_pairing,
)


@dataclass(frozen=True)
class TripleSystemReport:
    is_triple: bool
    center_dim: int
    L_basis: MatrixSubspace
    L_dim: int
    killing: RationalMatrix | None = None
    killing_signature: tuple[int, int, int] | None = None
    cartan_certified: bool = field(init=False)  # the triple verdict, see _generated
    special_split: tuple[MatrixSubspace, MatrixSubspace] | None = None

    def __post_init__(self):
        object.__setattr__(self, "cartan_certified", self.is_triple)


def _pair_brackets(w: MatrixSubspace) -> dict[tuple[int, int], RationalMatrix]:
    """W's bracket table {(a, b): [w_a, w_b]} for a < b."""
    return {
        (a, b): commutator(w.basis[a], w.basis[b])
        for a in range(w.dim)
        for b in range(a + 1, w.dim)
    }


def _pair_table(w: MatrixSubspace) -> tuple[MatrixSubspace, dict]:
    """L = W + [W, W], opened by W's basis, and each [w_a, w_b], a < b, over L's basis."""
    pairs = _pair_brackets(w)
    l = independent_subset(w.ambient_dim, w.basis + tuple(pairs.values()))
    return l, {ab: l.relation(c) for ab, c in pairs.items()}


def _center(w: MatrixSubspace, l: MatrixSubspace, rels) -> MatrixSubspace:
    """Kernel of x -> sum_a x_a vec(B_a), where row b of B_a is the table's
    relation of [w_a, w_b] = -[w_b, w_a] over L's basis ([w_a, w_a] = 0)."""
    rows = [[({}, 1)] * w.dim for _ in range(w.dim)]  # rows[a][b] = [w_a, w_b]
    for (a, b), (num, den) in rels.items():
        rows[a][b], rows[b][a] = (num, den), ({k: -x for k, x in num.items()}, den)
    blocks = [RationalMatrix.from_relations(r, l.dim) for r in rows]
    kernel = RationalMatrix(kernel_basis(_vec_stack(blocks).transpose()))
    return MatrixSubspace(w.ambient_dim, lin_combs(kernel, w.basis, w.ambient_dim))


def triple_center(w: MatrixSubspace) -> MatrixSubspace:
    """{a in W : [a, b] = 0 for all b in W}, computed as a kernel."""
    return _center(w, *_pair_table(w))


def generated_algebra(w: MatrixSubspace) -> TripleSystemReport:
    """L = W + [W, W] with Cartan-pair certification and Killing data."""
    return _generated(w)[0]


def _generated(w: MatrixSubspace) -> tuple[TripleSystemReport, list[RationalMatrix]]:
    """generated_algebra's report and L's ad matrices (none when W is not a
    triple system).  The triple test certifies the Cartan pair: t is spanned
    by [p, p], and once [t, p] lies in p, Jacobi puts [[a,b],[c,d]] =
    [[[a,b],c],d] + [c,[[a,b],d]] in [p, p], so [t, t] lies in t."""
    l, rels = _pair_table(w)
    center_dim = _center(w, l, rels).dim
    not_triple = TripleSystemReport(False, center_dim, L_basis=w, L_dim=w.dim), []
    try:
        ads = _ad_matrices(l)
    except NotClosedError:  # a triple system's L = W + [W, W] is closed
        return not_triple
    # in L-coordinates W's basis opens L's basis, and t is spanned by the table
    p = RationalMatrix.from_relations([({a: 1}, 1) for a in range(w.dim)], l.dim)
    t = RationalMatrix.from_relations(list(rels.values()), l.dim)
    # W is a triple system exactly when [t, p] lies in p
    if not _brackets_inside(ads, t, p, p):
        return not_triple
    killing = trace_pairing(ads, ads)
    return TripleSystemReport(True, center_dim, l, l.dim, killing, signature(killing)), ads


def _brackets_inside(ads, xs, ys, target) -> bool:
    """[x, y] = ad_x y lies in the span of target's rows for all rows x of xs and
    y of ys, all in L-coordinates: the brackets leave target's rank unchanged."""
    images = [ys * ad.transpose() for ad in lin_combs(xs, ads, len(ads))]  # rows ad_x y
    return rank(target, *images) == rank(target)


def _ad_matrices(l: MatrixSubspace) -> list[RationalMatrix]:
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


def killing_form(l: MatrixSubspace) -> RationalMatrix:
    """Gram of B(x, y) = tr(ad_x ad_y) in the basis of l."""
    ads = _ad_matrices(l)
    return trace_pairing(ads, ads)


def clifford_triple_system(module: CliffordModule) -> MatrixSubspace:
    """W = J(R^{r,s}) = span of the module generators."""
    return MatrixSubspace(module.module_dim, module.generators)


@lru_cache(maxsize=None)
def _clifford_generated(module: CliffordModule) -> tuple[TripleSystemReport, list[RationalMatrix]]:
    """clifford_triple_report's report and the ad table of its L, which the probe
    reads; memoized, as the package's costliest pure function of the module."""
    report, ads = _generated(clifford_triple_system(module))
    if report.is_triple and (module.signature.r, module.signature.s) in ((3, 0), (1, 2)):
        report = replace(report, special_split=_ideal_split(module, report.L_basis, ads))
    return report, ads


def clifford_triple_report(module: CliffordModule) -> TripleSystemReport:
    """generated_algebra for the module's W, with the (3,0)/(1,2) ideal
    split populated in the exceptional cases; read from one memo."""
    return _clifford_generated(module)[0]


# the report's memo is _clifford_generated's, to clear or to bypass
clifford_triple_report.cache_clear = _clifford_generated.cache_clear
clifford_triple_report.__wrapped__ = lambda module: _clifford_generated.__wrapped__(module)[0]


def clifford_ideal_probe(module: CliffordModule, seed: int) -> dict | None:
    """ideal_probe of the L of clifford_triple_report(module), read from the
    ad table that the report was built from; None when W is not a triple
    system."""
    report, ads = _clifford_generated(module)
    return _probe(ads, seed) if report.is_triple else None


def _ideal_split(
    module: CliffordModule, l: MatrixSubspace, ads
) -> tuple[MatrixSubspace, MatrixSubspace]:
    """h_pm and its brackets against J_2 and J_3, certified in L-coordinates,
    where J_1, J_2, J_3 open L's basis: [h, l_b] = ad_h e_b."""
    j1, j2, j3 = module.generators
    rels = [l.relation(j1 + (j2 * j3).scale(lam)) for lam in (1, -1)]
    if None in rels:
        raise HomomorphismError("h_pm lies outside L")
    # each part's rows: h, then columns 1 and 2 of ad_h, which sel picks from ad_h^T
    first = RationalMatrix([[1], [0], [0]])
    sel = RationalMatrix.from_relations([({}, 1), ({1: 1}, 1), ({2: 1}, 1)], l.dim)
    ad_hs = lin_combs(RationalMatrix.from_relations(rels, l.dim), ads, l.dim)
    parts = [
        first * RationalMatrix.from_relations([rel], l.dim) + sel * ad_h.transpose()
        for rel, ad_h in zip(rels, ad_hs)
    ]
    if l.dim != 6 or rank(*parts) != 6:
        raise HomomorphismError("h_+ and h_- do not make a basis of L")
    h_plus, h_minus = parts
    if not _brackets_inside(ads, h_plus, h_minus, RationalMatrix.zeros(0, 0)):
        raise HomomorphismError("h_+ and h_- do not commute")
    if not all(_brackets_inside(ads, RationalMatrix.identity(6), part, part) for part in parts):
        raise HomomorphismError("split summand is not an ideal of L")
    dim = l.ambient_dim
    return tuple(MatrixSubspace(dim, lin_combs(part, l.basis, dim)) for part in parts)


def decomposition_checks(w: MatrixSubspace) -> dict:
    """Linear-algebra consequences of the decomposition results: center of
    L, [L, L], direct-sum status and the triviality implication, all read
    from L's ad matrices."""
    report, ads = _generated(w)
    if not report.is_triple:
        return {"is_triple": False}
    n = report.L_dim
    # Z(L) is {v : ad_v = sum_x v_x ad_x = 0}; [L, L] is spanned by the ad columns
    z_l = kernel_basis(_vec_stack(ads).transpose())
    ll = [ad.transpose() for ad in ads]  # their rows are the ad columns
    derived = rank(*ll)
    span_dim = rank(RationalMatrix(z_l), *ll)
    direct_sum = span_dim == len(z_l) + derived and span_dim == n
    zw = report.center_dim
    return {
        "is_triple": True,
        "center_W_dim": zw,
        "center_L_dim": len(z_l),
        "centers_equal_dim": zw == len(z_l),
        "L_dim": n,
        "derived_L_dim": derived,
        "L_is_center_plus_derived": direct_sum,
        "trivial_center_implies_perfect": (zw != 0) or (derived == n),
    }


def theta_closure(d1: MatrixSubspace, d2: MatrixSubspace, p: int, q: int) -> dict:
    """Closure of the twist pair under theta(X) = eta X eta and transpose."""
    e = eta(p, q)

    def theta(x: RationalMatrix) -> RationalMatrix:
        return e * x * e

    theta_d1 = [theta(b) for b in d1.basis]
    theta_swaps = d1.dim == d2.dim and all(d2.contains(t) for t in theta_d1) and all(
        d1.contains(theta(b)) for b in d2.basis
    )
    sum_space = independent_subset(d1.ambient_dim, d1.basis + d2.basis)
    transpose_closed = all(sum_space.contains(-b.transpose()) for b in sum_space.basis)
    theta_closed = all(sum_space.contains(theta(b)) for b in sum_space.basis)
    gram1 = trace_gram(d1)
    gram_theta = -trace_pairing(theta_d1, theta_d1)
    return {
        "theta_maps_D1_onto_D2": theta_swaps,
        "sum_transpose_closed": transpose_closed,
        "sum_theta_invariant": theta_closed,
        "theta_is_isometry_on_D1": gram1 == gram_theta,
        "all": theta_swaps and transpose_closed and theta_closed and gram1 == gram_theta,
    }


def generated_ideal(l: MatrixSubspace, x: RationalMatrix) -> MatrixSubspace:
    """Smallest ad-invariant subspace of L containing x, grown in
    L-coordinates: [l_b, s] has coordinates ad_b s."""
    rel = l.relation(x)
    if rel is None:
        raise NotClosedError("element is outside L")
    closure = _closure(_ad_matrices(l), RationalMatrix.from_relations([rel], l.dim).transpose())
    return MatrixSubspace(l.ambient_dim, lin_combs(closure, l.basis, l.ambient_dim))


def ideal_probe(l: MatrixSubspace, seed: int, trials: int = 8) -> dict | None:
    """Seeded random search for a proper nonzero ideal: each trial generates
    the ideal of a random rational element.  Returns a witness dict or None.
    A None result is evidence, not proof, of simplicity."""
    return _probe(_ad_matrices(l), seed, trials)


def _probe(ads, seed: int, trials: int = 8) -> dict | None:
    """ideal_probe on L's ad matrices: every trial is drawn first, and the exact
    closure runs, in trial order, only where ``closure_is_full`` leaves it open."""
    dim, rng, draws = len(ads), random.Random(seed), []
    for _ in range(trials):
        draws.append([rng.randint(-3, 3) for _ in range(dim)])
        if not any(draws[-1]):
            draws[-1][rng.randrange(dim)] = 1
    full = closure_is_full(ads, RationalMatrix(draws).transpose())
    for trial, x in enumerate(draws):
        ideal_dim = dim if full[trial] else _closure(ads, RationalMatrix([x]).transpose()).rows
        if 0 < ideal_dim < dim:
            return {"trial": trial, "coefficients": x, "ideal_dim": ideal_dim}
    return None
