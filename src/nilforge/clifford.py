"""Admissible Clifford modules with integer generators.

``build_module`` produces, for a signature (r, s), a module dimension N, a
diagonal +-1 module form and r+s generator matrices J_i with entries in
{-1, 0, 1} satisfying

- J_i^2 = -nu_i I  (nu_i = +1 for i <= r, -1 otherwise),
- J_i J_j + J_j J_i = 0 for i != j,
- eta J_i^T eta = -J_i  (skew-symmetry for the module form),

with the form positive definite when s = 0 and neutral of index (N/2, N/2)
when s > 0: the pseudo H-type laws of ``nilpotent.h_type_laws`` for eta_{r,s}.

Construction: explicit integer tables for the base cases (1,0), (0,1),
(2,0), (1,1), (0,2), then two Kronecker doubling steps that each add one
generator while keeping the form diagonal:

- add_r: J -> J (x) E, new generator I (x) Q, form d -> d (x) I,
- add_s: J -> J (x) E, new generator I (x) P, form d -> d (x) (1, -1),

with E = diag(1,-1), Q = [[0,-1],[1,0]], P = [[0,1],[1,0]].  Every matrix
of the recursion is a signed permutation, held as index arrays (cols, vals)
of Python ints, row i holding vals[i] at column cols[i]: a Kronecker step
multiplies indices and values (``_kron``), and the final sort of the basis
(form +1 before -1) relabels rows and columns.  Each generator becomes a
matrix once, through ``RationalMatrix.signed_permutation``, which proves its
monomial form there, so no N x N array is multiplied out, permuted or
scanned to build it.  Every product of generators is a signed permutation
too, which the product kernel multiplies as a gather.  Every constructed
module is re-verified by ``verify_module``; nothing about the recursion is
trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import BadInputError, UnsupportedSignatureError, certify
from .exactlin import RationalMatrix, SignatureForm, StackText, _int_form, jsonify, nu
from .nilpotent import h_type_laws

#: largest r+s accepted by build_module
SIGNATURE_CAP = 8

# signed permutations as (cols, vals): row i holds vals[i] at column cols[i]
_E = ((0, 1), (1, -1))
_P = ((1, 0), (1, 1))
_Q = ((1, 0), (-1, 1))


@dataclass(frozen=True)
class CliffordSignature:
    r: int
    s: int

    def __post_init__(self):
        if type(self.r) is not int or type(self.s) is not int:
            raise UnsupportedSignatureError(f"signature ({self.r!r},{self.s!r}) is not two ints")
        if self.r < 0 or self.s < 0 or self.r + self.s < 1:
            raise UnsupportedSignatureError(f"bad signature ({self.r},{self.s})")

    @property
    def n(self) -> int:
        return self.r + self.s

    def nu(self, i: int) -> int:
        """Sign of the i-th basis vector (1-based): +1 for i <= r."""
        return nu(self.r, self.s, i)


@dataclass(frozen=True)
class CliffordModule:
    signature: CliffordSignature
    module_dim: int
    module_form: SignatureForm
    generators: tuple[RationalMatrix, ...]
    construction_path: tuple[str, ...] = ()

    def __post_init__(self):
        # the form is diag(eta) of size N, each eta_i 1 or -1, read in integers
        form = self.module_form.matrix
        eta = _int_form(form)[0].diagonal().tolist()
        if len(eta) != self.module_dim or {*eta} - {1, -1} or form != RationalMatrix.diag(eta):
            raise BadInputError(f"module form is not diag(+-1) of size N = {self.module_dim}")

    def to_json(self) -> dict:
        return jsonify(self)

    def _json_parts(self) -> dict:
        """The fields of ``to_json``, with the generators left as matrices."""
        return {
            "r": self.signature.r,
            "s": self.signature.s,
            "N": self.module_dim,
            "eta": _int_form(self.module_form.matrix)[0].diagonal().tolist(),
            "generators": StackText(self.generators, objects=True),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CliffordModule":
        try:
            for key in ("r", "s", "N"):
                if type(obj[key]) is not int:
                    raise BadInputError(f"{key} must be an integer, not {obj[key]!r}")
            sig = CliffordSignature(obj["r"], obj["s"])
            eta = obj["eta"]
            if type(eta) is not list or any(type(x) is not int or abs(x) != 1 for x in eta):
                raise BadInputError(f"eta must be a list of the integers 1 and -1, not {eta!r}")
            form = SignatureForm(RationalMatrix.diag(eta))
            gens = tuple(RationalMatrix.from_json(g) for g in obj["generators"])
        except (KeyError, TypeError) as exc:
            raise BadInputError(f"bad module object: {exc}") from exc
        n = obj["N"]
        if form.dim != n or any(g.rows != n or g.cols != n for g in gens):
            raise BadInputError(f"N = {n} disagrees with the size of eta or of a generator")
        return cls(sig, n, form, gens)


# base cases: (r, s) -> (list of generators, form diagonal)
# the 4x4 tables are the worked generator pairs for n_{2,0}, n_{1,1}, n_{0,2}
_BASE = {
    (1, 0): ([_Q], (1, 1)),
    (0, 1): ([_P], (1, -1)),
    (2, 0): ([((2, 3, 0, 1), (-1, -1, 1, 1)), ((3, 2, 1, 0), (-1, 1, -1, 1))], (1, 1, 1, 1)),
    (1, 1): ([((1, 0, 3, 2), (-1, 1, 1, -1)), ((2, 3, 0, 1), (1, 1, 1, 1))], (1, 1, -1, -1)),
    (0, 2): ([((2, 3, 0, 1), (1, 1, 1, 1)), ((3, 2, 1, 0), (1, -1, -1, 1))], (1, 1, -1, -1)),
}


def _pick_base(r: int, s: int) -> tuple[int, int]:
    """The first base case under (r, s); (1, 0) or (0, 1) fits any r + s >= 1."""
    for br, bs in ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1)):
        if br <= r and bs <= s:
            return br, bs


def _kron(a, b):
    """A (x) B for signed permutations (cols, vals): row i nb + k, nb the size
    of B, holds a_vals[i] b_vals[k] at column a_cols[i] nb + b_cols[k]."""
    (a_cols, a_vals), (b_cols, b_vals) = a, b
    nb = len(b_cols)
    return (
        [i * nb + k for i in a_cols for k in b_cols],
        [x * y for x in a_vals for y in b_vals],
    )


def _add_generator(r_gens, s_gens, form_diag, kind: str):
    """One doubling step: tensor old generators with E, append I (x) Q
    (kind 'r') or I (x) P (kind 's'); extend the form diagonal."""
    ident = (range(len(form_diag)), [1] * len(form_diag))
    r_gens = [_kron(g, _E) for g in r_gens]
    s_gens = [_kron(g, _E) for g in s_gens]
    if kind == "r":
        r_gens.append(_kron(ident, _Q))
        form_diag = tuple(x for d in form_diag for x in (d, d))
    else:
        s_gens.append(_kron(ident, _P))
        form_diag = tuple(x for d in form_diag for x in (d, -d))
    return r_gens, s_gens, form_diag


def _sort_form(r_gens, s_gens, form_diag):
    """Permute the basis so the form diagonal is all +1 then all -1: row i of
    P^T M P is row order[i] of M, with its column j renamed new[j], the
    position of j in order."""
    order = [i for i, d in enumerate(form_diag) if d > 0] + [
        i for i, d in enumerate(form_diag) if d < 0
    ]
    if order == list(range(len(form_diag))):
        return r_gens, s_gens, form_diag
    new = {j: i for i, j in enumerate(order)}

    def moved(g):
        cols, vals = g
        return [new[cols[i]] for i in order], [vals[i] for i in order]

    return (
        [moved(g) for g in r_gens],
        [moved(g) for g in s_gens],
        tuple(form_diag[i] for i in order),
    )


@lru_cache(maxsize=None)
def build_module(sig: CliffordSignature) -> CliffordModule:
    """Construct an admissible integer Clifford module for (r, s).

    Deterministic and immutable, hence memoized."""
    if sig.n > SIGNATURE_CAP:
        raise UnsupportedSignatureError(
            f"r+s = {sig.n} exceeds the implementation cap {SIGNATURE_CAP}"
        )
    br, bs = _pick_base(sig.r, sig.s)
    base_gens, form_diag = _BASE[(br, bs)]
    r_gens = list(base_gens[:br])
    s_gens = list(base_gens[br:])
    path = [f"base({br},{bs})"]
    for _ in range(sig.r - br):
        r_gens, s_gens, form_diag = _add_generator(r_gens, s_gens, form_diag, "r")
        path.append("add_r")
    for _ in range(sig.s - bs):
        r_gens, s_gens, form_diag = _add_generator(r_gens, s_gens, form_diag, "s")
        path.append("add_s")
    r_gens, s_gens, form_diag = _sort_form(r_gens, s_gens, form_diag)
    module = CliffordModule(
        signature=sig,
        module_dim=len(form_diag),
        # sorted, the diagonal is +1 before -1
        module_form=SignatureForm.standard(form_diag.count(1), form_diag.count(-1)),
        generators=tuple(RationalMatrix.signed_permutation(*g) for g in r_gens + s_gens),
        construction_path=tuple(path),
    )
    # the recursion is self-certifying; a failure here is a builder bug
    passed = verify_module(module)["passed"]
    certify(f"constructed module for ({sig.r},{sig.s}) failed verification", passed)
    return module


@lru_cache(maxsize=None)
def verify_module(module: CliffordModule) -> dict:
    """Full certification report; failures are report entries, not errors.
    Memoized (a pure function of the immutable module), so the report that
    ``build_module`` checked is the one a later call reads."""
    sig = module.signature
    n = module.module_dim
    form = module.module_form
    # G_Z = eta_{r,s} on the generators given; diagonal nu_i keeps the
    # report defined when their number is wrong
    nus = RationalMatrix.diag([sig.nu(i + 1) for i in range(len(module.generators))])
    laws = h_type_laws(module.generators, form.matrix, nus)
    skew, orth, square = laws["skew"], laws["orthogonality"], laws["square"]
    if sig.s > 0:
        form_ok = (form.p, form.q, form.nullity) == (n // 2, n // 2, 0)
    else:
        form_ok = (form.p, form.q, form.nullity) == (n, 0, 0)
    checks = {
        "generator_count": len(module.generators) == sig.n,
        "square_law": square,
        "anticommutation": laws["anticommutation"],
        "admissible_skew": skew,
        "orthogonality": orth,
        "form_signature": form_ok,
        "integer_entries": all(g.is_ternary() for g in module.generators),
        # two-of-three spot check: the truth table over {skew, orthogonality,
        # square-law} must never show exactly two passes
        "two_of_three": [skew, orth, square].count(True) != 2,
    }
    return {
        "r": sig.r,
        "s": sig.s,
        "N": n,
        "construction_path": list(module.construction_path),
        "checks": checks,
        "passed": all(checks.values()),
    }
