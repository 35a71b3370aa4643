"""Standard pseudo-metric algebras, eta-twists and the reduction isomorphism.

For an adapted 2-step algebra the structure matrices C^k span a subspace of
so(m); twisting by eta_{p,q} (either side) carries it into so(p,q).  When
the trace form is non-degenerate on the twisted space, the algebra is
isomorphic to the standard algebra R^{p,q} (+) W built from the duality

    <[v, w], z>_so(p,q) = <z v, w>_{p,q},

and ``reduction_isomorphism`` constructs and certifies that isomorphism.
The module also provides the free algebra F_2(p,q), the GL(m) action
rho(A) Z = A Z A^eta on so(p,q) subspaces, free-algebra automorphisms and
central quotients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    DegenerateWError,
    DimError,
    DimensionMismatchError,
    HomomorphismError,
    NotAdaptedError,
    PreconditionError,
    SingularAError,
)
from .exactlin import (
    MatrixSubspace,
    RationalMatrix,
    SignatureForm,
    block_diag,
    eta,
    eta_conjugate,
    independent_subset,
    kernel_basis,
    lin_comb,
    lin_combs,
    nu,
    rank,
    signature,
    trace_gram,
    trace_pairing,
)
from .nilpotent import NilpotentAlgebra2, algebra_from_J


def in_so(m: RationalMatrix, p: int, q: int) -> bool:
    """Membership test X^eta = eta X^T eta = -X for so(p,q)."""
    return m.is_square() and m.rows == p + q and eta_conjugate(m, p, q) == -m


def _so_image(mats, p: int, q: int, what: str) -> MatrixSubspace:
    """The span of the images ``mats``, certified to lie in so(p,q) on its
    basis; ``what`` names the map in the HomomorphismError."""
    out = MatrixSubspace(p + q, mats)
    if not all(in_so(b, p, q) for b in out.basis):
        raise HomomorphismError(f"{what} does not land in so({p},{q})")
    return out


def so_basis(p: int, q: int, normalized: bool = True) -> MatrixSubspace:
    """Basis phi_ij = -1/2 (E_ij - E_ji) eta_{p,q}, pairs (i, j) with i < j
    in lexicographic order.  ``normalized=False`` drops the 1/2 factor."""
    m = p + q
    half = Fraction(1, 2) if normalized else 1
    basis = []
    for i in range(m):
        for j in range(i + 1, m):
            rows = [[0] * m for _ in range(m)]
            # -(E_ij - E_ji) eta in integers, column j scaled by the eta diagonal
            rows[i][j] = -nu(p, q, j + 1)
            rows[j][i] = nu(p, q, i + 1)
            basis.append(RationalMatrix(rows).scale(half))
    return MatrixSubspace(m, basis)


def so_pair_signs(p: int, q: int) -> list[int]:
    """The signs nu_ij = nu_i nu_j in the pair order of ``so_basis``."""
    m = p + q
    return [
        nu(p, q, i + 1) * nu(p, q, j + 1)
        for i in range(m)
        for j in range(i + 1, m)
    ]


@dataclass(frozen=True)
class StandardPseudoMetricAlgebra:
    """The algebra R^{p,q} (+) W with the trace metric on W."""

    p: int
    q: int
    W: MatrixSubspace
    gram_W: RationalMatrix
    algebra: NilpotentAlgebra2


def structure_space(a: NilpotentAlgebra2) -> MatrixSubspace:
    """span{C^1, ..., C^n} in so(m), as built by the algebra's adapted
    check; empty for raw-tagged algebras."""
    if a.tag != "adapted":
        return MatrixSubspace(a.m)
    return a.structure_span


def eta_twist(c: MatrixSubspace, p: int, q: int, side: str = "right") -> MatrixSubspace:
    """Twist a structure space into so(p,q): C -> C eta (right) or eta C (left)."""
    if p + q != c.ambient_dim:
        raise DimError(f"p+q = {p + q} != ambient {c.ambient_dim}")
    if side not in ("right", "left"):
        raise PreconditionError(f"unknown twist side {side!r}")
    e = eta(p, q)
    basis = [b * e for b in c.basis] if side == "right" else [e * b for b in c.basis]
    return _so_image(basis, p, q, "eta twist")


def find_realizations(a: NilpotentAlgebra2) -> list[dict]:
    """All (p, q) with p+q = m whose right-twisted structure space carries a
    non-degenerate trace Gram; ascending p.  May be empty.

    The Gram -tr(C^k eta C^l eta) of the twisted basis C^k eta is read as
    tr(C^k (C^l)^eta), as C^l is antisymmetric; the adapted check has made
    the C^k a basis, and each C^k eta lies in so(p, q)."""
    if a.tag != "adapted":
        raise NotAdaptedError("find_realizations requires an adapted algebra")
    out = []
    for p in range(a.m + 1):
        q = a.m - p
        twisted = [eta_conjugate(c, p, q) for c in a.structure]
        sp, sq, nullity = signature(trace_pairing(a.structure, twisted))
        if nullity == 0:
            out.append({"p": p, "q": q, "signature": (sp, sq)})
    return out


def standard_algebra(p: int, q: int, w: MatrixSubspace) -> StandardPseudoMetricAlgebra:
    """The standard pseudo-metric algebra R^{p,q} (+) W: the metric algebra
    whose J-map sends the k-th basis vector of W to itself, for the form
    eta_{p,q} on V and the trace form on W.  ``algebra_from_J``'s skew check
    for G_V = eta_{p,q} is the so(p,q) membership of W (NotSkewError)."""
    m = p + q
    if w.ambient_dim != m:
        raise DimError(f"W ambient {w.ambient_dim} != p+q = {m}")
    gram = trace_gram(w)
    form_z = SignatureForm(gram)
    if not form_z.is_nondegenerate():
        raise DegenerateWError("trace form degenerates on W")
    ma = algebra_from_J(w.basis, SignatureForm.standard(p, q), form_z)
    return StandardPseudoMetricAlgebra(p=p, q=q, W=w, gram_W=gram, algebra=ma.algebra)


def reduction_isomorphism(
    a: NilpotentAlgebra2, p: int, q: int
) -> tuple[RationalMatrix, StandardPseudoMetricAlgebra]:
    """Certified isomorphism onto the standard algebra of the left twist.

    T fixes the V basis and sends z_k to -rho_k, where rho_k is the
    trace-form dual basis of D^k = eta C^k.  The homomorphism law
    T([v_i, v_j]) = [T v_i, T v_j] is certified on all basis pairs.
    """
    if a.tag != "adapted":
        raise NotAdaptedError("reduction requires an adapted algebra")
    target = standard_algebra(p, q, eta_twist(structure_space(a), p, q, "left"))
    neg_g_inv = -target.algebra.form_Z.inverse_matrix()
    # z_k -> -rho_k = -sum_l (G^{-1})_{lk} D^l: T = diag(I_m, -G^{-1})
    t = block_diag(RationalMatrix.identity(a.m), neg_g_inv)
    # certify on all basis pairs: the k-th coordinate of T([v_i, v_j]) is
    # -sum_l (G^{-1})_{kl} C^l_ij (both sides antisymmetric)
    if tuple(lin_combs(neg_g_inv, a.structure, a.m)) != target.algebra.structure:
        raise HomomorphismError("reduction certificate failed; convention bug")
    return t, target


@lru_cache(maxsize=None)
def free_algebra(p: int, q: int) -> StandardPseudoMetricAlgebra:
    """The free metric 2-step algebra F_2(p,q) = R^{p,q} (+) so(p,q) with
    [e_i, e_j] = phi_ij = -1/2 (E_ij - E_ji) eta_{p,q}.  Memoized, so the
    ``free`` verb and ``free_isomorphism`` share one build."""
    if p + q < 2:
        raise DimError("free algebra needs p+q >= 2")
    return standard_algebra(p, q, so_basis(p, q))


def free_isomorphism(p: int, q: int) -> dict:
    """The basis map F_2(m) -> F_2(p,q): e_k -> e_k, v_ij -> phi_ij.

    Certified by comparing the two structure tensors in the mapped bases;
    also reports the exact phi-basis Gram diagonal (nu_ij / 2) and the sign
    pattern nu_ij.
    """
    m = p + q
    source = free_algebra(m, 0)
    target = free_algebra(p, q)
    certified = source.algebra.structure == target.algebra.structure
    gram = target.gram_W
    diag = [gram.entry(i, i) for i in range(gram.rows)]
    signs = so_pair_signs(p, q)
    diagonal_ok = gram == RationalMatrix.diag(diag)
    sign_ok = all((x > 0) == (s > 0) for x, s in zip(diag, signs))
    return {
        "p": p,
        "q": q,
        "phi_basis": target.W,
        "gram_diagonal": diag,
        "nu_signs": signs,
        "gram_is_diagonal": diagonal_ok,
        "signs_match_nu": sign_ok,
        "certified": certified and diagonal_ok and sign_ok,
    }


def gl_action(a: RationalMatrix, s: MatrixSubspace, p: int, q: int) -> MatrixSubspace:
    """The left action rho(A) Z = A Z A^eta on so(p,q) subspaces."""
    m = p + q
    if a.rows != m or a.cols != m:
        raise DimensionMismatchError("A size != p+q")
    if rank(a) != m:
        raise SingularAError("A is not invertible")
    a_eta = eta_conjugate(a, p, q)
    return _so_image([a * z * a_eta for z in s.basis], p, q, "GL(m) action")


FreeElement = tuple[tuple, RationalMatrix]  # (V part, center part in so(p,q))


def free_bracket(p: int, q: int, x: FreeElement, y: FreeElement) -> RationalMatrix:
    """[x, y] = -1/2 (x y^T - y x^T) eta_{p,q} in F_2(p,q), for the V parts
    x, y of the two elements as columns; the center parts contribute
    nothing.  V parts of length other than p+q raise."""
    e = eta(p, q)
    xc = RationalMatrix([(t,) for t in x[0]])
    yc = RationalMatrix([(t,) for t in y[0]])
    if xc.rows != e.rows or yc.rows != e.rows:
        raise DimensionMismatchError("free_bracket V parts must have length p+q")
    wedge = xc * yc.transpose() - yc * xc.transpose()
    return wedge * e.scale(Fraction(-1, 2))


def apply_free_automorphism(
    p: int, q: int, a: RationalMatrix, s_hom, x: FreeElement
) -> FreeElement:
    """Apply phi(v + Z) = (A v) + (S_hom(v) + A Z A^eta) to an element of
    F_2(p,q); the map is certified as an automorphism on all basis pairs.

    ``s_hom`` is the list of m matrices S_hom(e_i) in so(p,q).  The
    certificate compares two constructions of phi([e_i, e_j]): rho(A) of
    phi_ij = [e_i, e_j] from ``so_basis``, and [A e_i, A e_j] from
    ``free_bracket``, for all pairs i < j in ``so_basis`` order.
    """
    m = p + q
    s_hom = list(s_hom)
    if len(s_hom) != m:
        raise DimensionMismatchError("S_hom needs one image matrix per basis vector")
    # gl_action rejects a wrongly sized or singular A
    images = gl_action(a, so_basis(p, q), p, q).basis
    brackets = tuple(
        free_bracket(p, q, (a.column(i), None), (a.column(j), None))
        for i in range(m)
        for j in range(i + 1, m)
    )
    if images != brackets:
        raise HomomorphismError("free automorphism certificate failed")
    new_v = a.apply(x[0])
    new_z = lin_comb(x[0], s_hom, m)
    if x[1] is not None:
        new_z = a * x[1] * eta_conjugate(a, p, q) + new_z
    return new_v, new_z


def quotient_by_center_subspace(
    f: StandardPseudoMetricAlgebra, k: MatrixSubspace
) -> tuple[NilpotentAlgebra2, bool]:
    """Quotient F/K for a central subspace K, projecting brackets along a
    complement of K inside W.

    Prefers the trace-orthogonal complement; when K is degenerate for the
    trace form a row-reduction complement is used and the returned flag is
    False ("non-metric complement").
    """
    w = f.W
    if not w.contains_subspace(k):
        raise PreconditionError("K is not a subspace of the center")
    # trace-orthogonal complement of K inside W, in W coordinates
    m = f.p + f.q
    if k.dim:
        pairing = -trace_pairing(k.basis, w.basis)
        comp = lin_combs(RationalMatrix(kernel_basis(pairing)), w.basis, m)
    else:
        comp = list(w.basis)
    # K (+) complement, whose coordinates express the brackets below
    k_comp = independent_subset(m, list(k.basis) + comp)
    metric = len(comp) == w.dim - k.dim and k_comp.dim == w.dim
    if not metric:
        # K meets its orthogonal complement; fall back to greedy extension
        k_comp = independent_subset(m, list(k.basis) + list(w.basis))
        comp = list(k_comp.basis[k.dim:])
    nq = len(comp)
    # [e_i, e_j] = sum_l C^l_ij w_l, so the t-th complement coordinate of the
    # bracket is sum_l x_lt C^l_ij, x_lt that coordinate of w_l
    rels = [k_comp.relation(b) for b in w.basis]
    if None in rels:
        raise HomomorphismError("W lies outside K (+) complement")
    comp_rels = [({i - k.dim: x for i, x in num.items() if i >= k.dim}, den) for num, den in rels]
    change = RationalMatrix.from_relations(comp_rels, nq).transpose()
    gram = -trace_pairing(comp, comp)
    form_z = None
    if nq:
        candidate = SignatureForm(gram)
        if candidate.is_nondegenerate():
            form_z = candidate
    algebra = NilpotentAlgebra2.tagged(
        m=m,
        n=nq,
        structure=tuple(lin_combs(change, f.algebra.structure, m)),
        form_V=SignatureForm.standard(f.p, f.q),
        form_Z=form_z,
    )
    return algebra, metric


def orbit_witness_check(
    a: RationalMatrix, w1: MatrixSubspace, w2: MatrixSubspace, p: int, q: int
) -> bool:
    """Verify the orbit witness A W1 A^eta = W2 by mutual containment."""
    return gl_action(a, w1, p, q).equals(w2)
