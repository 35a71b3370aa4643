"""Rational structures and lattice verdicts.

A simply connected 2-step nilpotent group admits a co-compact lattice
exactly when its algebra has a basis with rational structure constants.
Everything in this package is exact-rational, so verdicts are constructive:
``lattice_verdict`` emits an identity witness basis together with the
minimal integer rescale factor, and ``pseudo_H_pipeline_report`` runs the
whole pipeline for the pseudo H-type algebra n_{r,s} — integer Clifford
module, n_{r,s} itself, and the standard algebra over W = span{J_i} —
certifying the isomorphism chain and the trace identity along the way.

Imported JSON may flag constants as ``symbolic`` (defined only up to an
unknown real scale); those carry no lattice information and get Unknown.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm

from .clifford import CliffordModule, CliffordSignature, build_module
from .errors import HomomorphismError
from .exactlin import MatrixSubspace, RationalMatrix, SignatureForm, _int_form, eta
from .nilpotent import MetricAlgebra, NilpotentAlgebra2, algebra_from_J
from .standardform import standard_algebra


@dataclass(frozen=True)
class LatticeVerdict:
    status: str  # "AdmitsLattice" | "Unknown"
    witness_basis: RationalMatrix | None = None
    rescale_factor: int = 1
    rescaled_constants_integer: bool = False
    detail: str = ""


def integer_rescale(a: NilpotentAlgebra2) -> tuple[int, NilpotentAlgebra2]:
    """Minimal positive d with d*C^k integer, plus the rescaled algebra.

    The basis change realizing d*C is the sqrt(d) dilation of the V part,
    which is irrational; only the pair (d, rescaled tensor) is stored, which
    is the exact, testable content.
    """
    d = _rescale_factor(a)
    return d, replace(a, structure=tuple(c.scale(d) for c in a.structure))


def _rescale_factor(a: NilpotentAlgebra2) -> int:
    """The least common denominator of the C^k: the D of their integer forms."""
    return lcm(*(_int_form(c)[1] for c in a.structure))


def _brackets_integer(a: NilpotentAlgebra2, d: int) -> bool:
    """d*C^k is integer for every k: checked on the rescaled structure
    matrices themselves rather than trusting the factor that was read off
    their denominators."""
    return all(c.scale(d).is_integer() for c in a.structure)


def lattice_verdict(a: NilpotentAlgebra2) -> LatticeVerdict:
    """Mal'cev verdict: rational constants admit a lattice; symbolic
    imports are Unknown.  Every constant this package constructs is a known
    rational, so only a symbolic import lacks a rational basis."""
    if a.symbolic:
        return LatticeVerdict(
            status="Unknown",
            detail="structure constants are defined only up to an unknown scale",
        )
    d = _rescale_factor(a)
    integer_ok = _brackets_integer(a, d)
    return LatticeVerdict(
        status="AdmitsLattice",
        witness_basis=RationalMatrix.identity(a.total_dim),
        rescale_factor=d,
        rescaled_constants_integer=integer_ok,
        detail=f"rational constants; d = {d} clears all denominators",
    )


def pseudo_H_algebra(module: CliffordModule) -> MetricAlgebra:
    """n_{r,s}: V = module space with its form, Z = R^{r,s}, J as given."""
    sig = module.signature
    form_z = SignatureForm.standard(sig.r, sig.s)
    return algebra_from_J(module.generators, module.module_form, form_z)


def pseudo_H_pipeline_report(r: int, s: int) -> dict:
    """Full lattice pipeline for n_{r,s}, with every link certified.

    Steps: build the integer module; eliminate W = span{J_i} once (inside
    so(p,q) for the module form's signature) and build on it both n_{r,s}
    (constants in {-1,0,1}) and the standard algebra G = R^{p,q} (+) W;
    verify the trace identity -tr(J_{Z_i}^2) = 2l * nu_i and the Gram
    rescaling <J_Z, J_Z'> = 2l <Z, Z'>; certify that T = diag(I, I/(2l)) is a Lie
    algebra isomorphism n_{r,s} -> G by comparing structure tensors.

    The trace identity is the diagonal of the Gram comparison, so it holds
    whenever ``gram_ok`` does and cannot fail on its own; it stays in the
    final check because ``trace_identity`` and ``traces`` are fields of the
    printed report.
    """
    sig = CliffordSignature(r, s)
    module = build_module(sig)
    n = sig.n
    big_n = module.module_dim
    two_l = big_n
    p, q = module.module_form.p, module.module_form.q
    w = MatrixSubspace(big_n, module.generators)
    n_alg = algebra_from_J(w, module.module_form, SignatureForm.standard(r, s))
    constants_unit = all(c.is_ternary() for c in n_alg.structure)
    std = standard_algebra(p, q, w)
    # -tr(J_i^2) = -tr(-nu_i I_N) = 2l * nu_i, read off the diagonal of the
    # trace Gram that standard_algebra built on W = span{J_i}
    traces = [std.gram_W.entry(i, i) for i in range(n)]
    trace_identity = all(t == two_l * sig.nu(i + 1) for i, t in enumerate(traces))
    gram_ok = std.gram_W == eta(r, s).scale(two_l)
    # T fixes V and sends z_k -> w_k / (2l): structure must satisfy
    # C_std^k = C_n^k / (2l)
    iso_ok = all(
        std.algebra.structure[k] == n_alg.structure[k].scale(Fraction(1, two_l))
        for k in range(n)
    )
    if not (trace_identity and gram_ok and iso_ok):
        raise HomomorphismError("pseudo H-type lattice pipeline failed certification")
    d_std = _rescale_factor(std.algebra)
    verdict = lattice_verdict(n_alg.algebra)
    return {
        "r": r,
        "s": s,
        "N": big_n,
        "two_l": two_l,
        "constants_in_unit_range": constants_unit,
        "traces": traces,
        "trace_identity": trace_identity,
        "gram_is_2l_eta": gram_ok,
        "standard_iso_certified": iso_ok,
        "standard_rescale_factor": d_std,
        "standard_rescale_divides_2l": two_l % d_std == 0,
        "verdict": verdict,
        "algebra": n_alg.algebra,
        "standard_algebra": std,
    }
