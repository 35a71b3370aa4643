"""2-step nilpotent metric Lie algebras.

The central type is ``NilpotentAlgebra2``: an m-dimensional complement V and
an n-dimensional center with antisymmetric structure matrices C^k, so that
[v_i, v_j] = sum_k C^k_{ij} z_k.  With scalar products on both parts the
bracket and the J-map determine each other through the duality

    <J_z v, w>_V = <z, [v, w]>_Z

which in Gram-matrix terms reads J_z = -G_V^{-1} sum_k (G_Z z)_k C^k.
Both directions (``j_map`` / ``algebra_from_J``) are implemented, and
``h_type_laws`` certifies the polarized skew, square, anticommutation and
orthogonality laws, for ``is_pseudo_H_type`` and for Clifford modules alike.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field, replace
from fractions import Fraction
from math import isqrt

from .errors import (
    BadInputError,
    DegenerateFormError,
    DegenerateRestrictionError,
    DependentBasisError,
    DimensionMismatchError,
    NotAntisymmetricError,
    NotSkewError,
    PreconditionError,
    certify,
)
from .exactlin import (
    ZERO,
    MatrixSubspace,
    RationalMatrix,
    SignatureForm,
    StackText,
    _int_form,
    char_poly,
    independent_subset,
    kernel_basis,
    inverse,
    jsonify,
    lin_comb,
    lin_combs,
    polarized_match,
    rat,
    rational_roots,
    rref,
    skew_combs,
)


@dataclass(frozen=True)
class NilpotentAlgebra2:
    """2-step algebra in an adapted-or-raw basis.

    ``tag`` is "adapted" when the C^k are certified linearly independent;
    their span is kept as ``structure_span``.  The adapted check eliminates
    the C^k, unless ``span`` hands on a ``MatrixSubspace`` whose basis is the
    structure tuple itself: a subspace's basis is independent by
    construction, so that span certifies the C^k as it stands.  A span with
    any other basis is not trusted, and the C^k are eliminated.  ``tagged``
    and ``algebra_from_J`` hand one on; a ``replace`` without one re-certifies.
    ``symbolic`` marks imported constants defined only up to an unknown real
    scale (they then carry no lattice information).
    """

    m: int
    n: int
    structure: tuple[RationalMatrix, ...]
    form_V: SignatureForm | None = None
    form_Z: SignatureForm | None = None
    tag: str = "raw"
    symbolic: bool = False
    structure_span: MatrixSubspace | None = field(
        default=None, init=False, repr=False, compare=False
    )
    span: InitVar[MatrixSubspace | None] = None

    def __post_init__(self, span):
        if self.m < 0 or self.n < 0:
            raise BadInputError(f"dimensions must be non-negative, not m={self.m}, n={self.n}")
        if len(self.structure) != self.n:
            raise DimensionMismatchError(
                f"{len(self.structure)} structure matrices for center dim {self.n}"
            )
        for c in self.structure:
            if c.rows != self.m or c.cols != self.m:
                raise DimensionMismatchError("structure matrix shape mismatch")
            if not c.is_antisymmetric():
                raise NotAntisymmetricError("structure matrix C^k is not antisymmetric")
        if self.form_V is not None and self.form_V.dim != self.m:
            raise DimensionMismatchError("form_V size != m")
        if self.form_Z is not None and self.form_Z.dim != self.n:
            raise DimensionMismatchError("form_Z size != n")
        if self.tag not in ("adapted", "raw"):
            raise BadInputError(f"unknown tag {self.tag!r}")
        if self.tag == "adapted":
            if not self.n:
                raise BadInputError("adapted tag requires a nonzero center")
            if span is None or span.basis != self.structure:
                span = independent_subset(self.m, self.structure)
                if span.dim != self.n:
                    raise DependentBasisError(
                        "adapted tag requires independent structure matrices"
                    )
            object.__setattr__(self, "structure_span", span)

    @property
    def total_dim(self) -> int:
        return self.m + self.n

    def to_json(self) -> dict:
        return jsonify(self)

    def _json_parts(self) -> dict:
        """The fields of ``to_json``, with the matrices left as they are."""
        obj = {
            "m": self.m,
            "n": self.n,
            "C": StackText(self.structure, objects=False),
            "form_V": self.form_V,
            "form_Z": self.form_Z,
            "tag": self.tag,
        }
        if self.symbolic:
            obj["symbolic"] = True
        return obj

    @classmethod
    def tagged(cls, span=None, **fields) -> "NilpotentAlgebra2":
        """Tagged "adapted" when n > 0 and the C^k are independent, else "raw",
        as a handed-on ``span`` whose basis is the C^k or one elimination decides."""
        if span is None or span.basis != fields["structure"]:
            span = independent_subset(fields["m"], fields["structure"])
        adapted = fields["n"] > 0 and span.dim == fields["n"]
        return cls(tag="adapted" if adapted else "raw", span=span, **fields)

    @classmethod
    def from_json(cls, obj: dict) -> "NilpotentAlgebra2":
        try:
            for key in ("m", "n"):
                if type(obj[key]) is not int:
                    raise BadInputError(f"{key} must be an integer, not {obj[key]!r}")
            structure = tuple(RationalMatrix(c) for c in obj["C"])
            forms = {}
            for key in ("form_V", "form_Z"):
                form = obj.get(key)
                if form is not None and type(form) is not dict:
                    raise BadInputError(f"{key} must be an object or null, not {form!r}")
                forms[key] = None if form is None else SignatureForm.from_json(form)
            symbolic = obj.get("symbolic", False)
            if type(symbolic) is not bool:
                raise BadInputError(f"symbolic must be a boolean, not {symbolic!r}")
            return cls(
                m=obj["m"],
                n=obj["n"],
                structure=structure,
                tag=obj.get("tag", "raw"),
                symbolic=symbolic,
                **forms,
            )
        except (KeyError, TypeError) as exc:
            raise BadInputError(f"bad algebra object: {exc}") from exc


class MetricAlgebra:
    """A NilpotentAlgebra2 whose forms are present and non-degenerate."""

    __slots__ = ("algebra",)

    def __init__(self, algebra: NilpotentAlgebra2):
        if algebra.form_V is None or algebra.form_Z is None:
            raise DegenerateFormError("metric algebra requires both forms")
        if not algebra.form_V.is_nondegenerate():
            raise DegenerateFormError("form_V is degenerate")
        if not algebra.form_Z.is_nondegenerate():
            raise DegenerateFormError("form_Z is degenerate")
        self.algebra = algebra

    @property
    def m(self) -> int:
        return self.algebra.m

    @property
    def n(self) -> int:
        return self.algebra.n

    @property
    def structure(self) -> tuple[RationalMatrix, ...]:
        return self.algebra.structure

    @property
    def form_V(self) -> SignatureForm:
        return self.algebra.form_V

    @property
    def form_Z(self) -> SignatureForm:
        return self.algebra.form_Z


def bracket(a: NilpotentAlgebra2, x, y) -> tuple[Fraction, ...]:
    """Lie bracket of two coordinate vectors of length m+n.

    Center components of the inputs contribute nothing (2-step); the output
    has zero V-part and center coordinates x_V^T C^k y_V, each one product
    of size 1 x 1 (0 x 0 at m = 0, whence the trace reads it).
    """
    xv = [rat(t) for t in x]
    yv = [rat(t) for t in y]
    if len(xv) != a.total_dim or len(yv) != a.total_dim:
        raise DimensionMismatchError("bracket arguments must have length m+n")
    xt = RationalMatrix([(t,) for t in xv[: a.m]]).transpose()
    yc = RationalMatrix([(t,) for t in yv[: a.m]])
    return (ZERO,) * a.m + tuple((xt * c * yc).trace() for c in a.structure)


def j_map(ma: MetricAlgebra, z) -> RationalMatrix:
    """The map J_z on V defined by <J_z v, w>_V = <z, [v,w]>_Z, linear in z."""
    return lin_comb(z, _j_basis(ma), ma.m)


def algebra_from_J(j_list, form_V: SignatureForm, form_Z: SignatureForm) -> MetricAlgebra:
    """Build the metric algebra whose J-map sends the k-th center basis
    vector to j_list[k]; inverse of ``j_map`` on basis vectors.  G_V, a
    form, is symmetric, and each G_V J_k must be antisymmetric (J_k skew).

    A ``MatrixSubspace`` W of J's is used as it is; a list of J's is
    eliminated into W (``independent_subset``), the one elimination here.
    The output is adapted on ``W.mapped(C)`` when dim W = n > 0, raw
    otherwise: C_k = sum_l (G_Z^{-1})_kl (-G_V J_l) recombines invertibly the
    images of the one-to-one J -> -G_V J, so the C_k are independent iff the J_k are."""
    if not form_V.is_nondegenerate() or not form_Z.is_nondegenerate():
        raise DegenerateFormError("both forms must be non-degenerate")
    w = j_list if isinstance(j_list, MatrixSubspace) else None
    j_list, m, n = tuple(j_list if w is None else w.basis), form_V.dim, form_Z.dim
    if len(j_list) != n:
        raise DimensionMismatchError("need one J per center basis vector")
    if any(j.rows != m or j.cols != m for j in j_list):
        raise DimensionMismatchError("J matrix size != m")
    # J_l^T G_V = sum_k (G_Z)_{kl} C^k  =>  C^k = sum_l (G_Z^{-1})_{kl} J_l^T G_V;
    # G_V is symmetric, so J^T G_V = (G_V J)^T: the skew law J^T G_V = -G_V J
    # says that G_V J is antisymmetric, and -G_V J is then J^T G_V
    structure = skew_combs(form_Z.inverse_matrix(), form_V.matrix, j_list, m)
    if structure is None:
        raise NotSkewError("J_k is not skew-symmetric for form_V")
    if w is None:
        w = independent_subset(m, j_list)
    structure, adapted = tuple(structure), n > 0 and w.dim == n
    algebra = NilpotentAlgebra2(
        m=m,
        n=n,
        structure=structure,
        form_V=form_V,
        form_Z=form_Z,
        tag="adapted" if adapted else "raw",
        span=w.mapped(structure) if adapted else None,
    )
    return MetricAlgebra(algebra)


def derived_ideal(a: NilpotentAlgebra2) -> list[tuple[Fraction, ...]]:
    """Basis of span{[v_i, v_j]} in center coordinates: the pivot columns of
    the n x len(pairs) matrix of the brackets' center coordinates."""
    pairs = [(i, j) for i in range(a.m) for j in range(i + 1, a.m)]
    _, pivots = rref(RationalMatrix([[c.entry(i, j) for i, j in pairs] for c in a.structure]))
    return [tuple(c.entry(*pairs[p]) for c in a.structure) for p in pivots]


def abelian_factor(ma: MetricAlgebra) -> tuple[NilpotentAlgebra2, int]:
    """Split the center as derived ideal + orthogonal abelian factor.

    Returns the reduced algebra (center = derived ideal, metric restricted)
    and the abelian factor dimension d = dim ker(J) = n - dim[g, g].
    """
    a = ma.algebra
    b = RationalMatrix(derived_ideal(a))  # its rows are the basis u_k
    d = b.rows
    g_b = b * ma.form_Z.matrix if d else b  # B G_Z; a matrix with no rows is 0 x 0
    restricted = SignatureForm(g_b * b.transpose())
    if not restricted.is_nondegenerate():
        raise DegenerateRestrictionError("form_Z degenerates on the derived ideal")
    # every bracket lies in span(u_k), where (B G_Z B^T)^{-1} B G_Z reads its
    # coordinates, so C*^k = sum_l ((B G_Z B^T)^{-1} B G_Z)_kl C^l
    coords = restricted.inverse_matrix() * g_b
    g_star = replace(
        a,
        n=d,
        structure=tuple(lin_combs(coords, a.structure, a.m)),
        form_Z=restricted,
        tag="adapted" if d else "raw",
    )
    return g_star, a.n - d


def h_type_laws(js, g_v: RationalMatrix, g_z: RationalMatrix) -> dict:
    """The pseudo H-type laws of maps J_1..J_n on (V, G_V) over (Z, G_Z),
    polarized on basis pairs; for G_Z = eta_{r,s} they are the laws of an
    admissible Clifford module.  G_V is a form, so symmetric.

    - skew: J_k^T G_V = -G_V J_k, that is G_V J_k = -(G_V J_k)^T,
    - square: J_k^2 = -(G_Z)_kk I,
    - anticommutation: J_k J_l + J_l J_k = -2 (G_Z)_kl I for k < l,
    - orthogonality: J_k^T G_V J_l + J_l^T G_V J_k = 2 (G_Z)_kl G_V for
      k <= l (J_k^T G_V J_k = (G_Z)_kk G_V on the diagonal).
    """
    js = list(js)
    n = len(js)
    if g_z.rows != n or g_z.cols != n:
        raise DimensionMismatchError(f"{n} maps against a {g_z.rows}x{g_z.cols} G_Z")
    # (G_Z)_kl = gz[k][l] / dz; square and anticommutation are the diagonal
    # and k < l of one polarized_match, orthogonality is k <= l of another
    gz, dz = _int_form(g_z)
    gz = gz.tolist()
    gjs, jts = [g_v * j for j in js], [j.transpose() for j in js]
    unit, twice = RationalMatrix.identity(g_v.rows), [[2 * x for x in r] for r in gz]
    law = polarized_match(js, js, unit, [[-x for x in r] for r in twice], dz)
    orth = polarized_match(jts, gjs, g_v, twice, dz)
    return {
        "skew": all(gj.is_antisymmetric() for gj in gjs),
        "square": all(law[k][k] for k in range(n)),
        "anticommutation": all(law[k][l] for k in range(n) for l in range(k + 1, n)),
        "orthogonality": all(orth[k][l] for k in range(n) for l in range(k, n)),
    }


def _j_basis(ma: MetricAlgebra) -> list[RationalMatrix]:
    """J_{z_1}, ..., J_{z_n} on the center basis vectors z_k: J_{z_k} =
    -G_V^{-1} sum_l (G_Z)_lk C^l, and G_Z is symmetric."""
    g_v_inv = ma.form_V.inverse_matrix()
    return [-(g_v_inv * c) for c in lin_combs(ma.form_Z.matrix, ma.structure, ma.m)]


def is_pseudo_H_type(ma: MetricAlgebra) -> dict:
    """Certify the pseudo H-type laws on polarized basis identities."""
    laws = h_type_laws(_j_basis(ma), ma.form_V.matrix, ma.form_Z.matrix)
    skew, orth = laws["skew"], laws["orthogonality"]
    square = laws["square"] and laws["anticommutation"]
    checks = {
        "skew_symmetry": skew,
        "square_law": square,
        "orthogonality": orth,
        "two_of_three": [skew, square, orth].count(True) != 2,
    }
    return {"checks": checks, "verdict": skew and square and orth}


def _rational_sqrt(x: Fraction) -> Fraction | None:
    num, den = x.numerator, x.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class ScalingOutcome:
    """Result of the metric-rescaling comparison of two algebras sharing a
    J-image: a certified (anti-)isometry when the scaling operator S has a
    rational square-root spectrum, otherwise the char poly evidence."""

    status: str  # "isometry" | "anti-isometry" | "irrational-scaling"
    s_matrix: RationalMatrix
    char_poly: tuple[Fraction, ...]
    phi_V: RationalMatrix | None = None
    phi_U_sign: int = 1
    certified: bool = False


def scaling_isomorphism(a1: MetricAlgebra, a2: MetricAlgebra) -> ScalingOutcome:
    """Compare two metric algebras sharing the same J-image via the scaling
    operator S defined by <v, w>_2 = <S v, w>_1.

    Preconditions (checked): equal dimensions, equal J-image span, and
    matching causal type, that is no negative rational root lambda of S (none
    is 0, S being invertible).  An eigenvector x has <x, y>_2 = <S x, y>_1 =
    lambda <x, y>_1 for all y; if lambda < 0, a non-null x has <x, x>_1 and
    <x, x>_2 of opposite signs, and for a null x some y has <x, y>_1 != 0 (G1
    is non-degenerate), so u = x + t y, small t != 0, has them of opposite signs.

    S = G1^{-1} G2 is then symmetric for both forms and commutes with every
    J, so neither needs a check.  For symmetric G1, G2: S^T G1 = G2 = G1 S
    and S^T G2 = G2 G1^{-1} G2 = G2 S.  Each algebra's J's are skew for its
    own form (G_V J = -C), and skewness is linear, so every J in the shared
    span is skew for both forms: S J = -G1^{-1} J^T G2 = J S.
    """
    if a1.m != a2.m or a1.n != a2.n:
        raise PreconditionError("algebra dimensions differ")
    m = a1.m
    if not independent_subset(m, _j_basis(a1)).equals(independent_subset(m, _j_basis(a2))):
        raise PreconditionError("the two algebras do not share a J-image")
    s = a1.form_V.inverse_matrix() * a2.form_V.matrix
    cp = char_poly(s)
    roots, remainder = rational_roots(cp)
    if any(lam < 0 for lam in roots):
        raise PreconditionError("metrics disagree in causal type: S has a negative root")
    eigvecs = []  # m of them exactly when S is diagonalizable over Q
    if remainder == 0:
        for lam in sorted(roots):
            ker = kernel_basis(s - RationalMatrix.identity(m).scale(lam))
            eigvecs.extend((lam, v) for v in ker)
    sqrts = {lam: _rational_sqrt(lam) for lam in roots}  # each lam > 0 now
    if len(eigvecs) < m or any(r is None for r in sqrts.values()):
        return ScalingOutcome("irrational-scaling", s, tuple(cp))
    # phi_V acts as sqrt(lambda) on each eigenspace
    b = RationalMatrix([v for _, v in eigvecs]).transpose()
    phi_v = b * RationalMatrix.diag([sqrts[lam] for lam, _ in eigvecs]) * inverse(b)
    phi_t = phi_v.transpose()
    pulled = [phi_t * c1 * phi_v for c1 in a1.structure]  # once for both signs
    pairs = list(zip(pulled, a2.structure))
    sign = next((g for g in (1, -1) if all(x == c2.scale(g) for x, c2 in pairs)), 0)
    certify("neither isometry variant certifies; convention bug", sign != 0)
    status = "isometry" if sign == 1 else "anti-isometry"
    return ScalingOutcome(status, s, tuple(cp), phi_v, sign, True)
