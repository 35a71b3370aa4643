"""nilforge: exact-rational toolkit for 2-step nilpotent Lie algebras
with indefinite scalar products — Clifford-module generators, pseudo
H-type algebras, standard pseudo-metric forms, Lie triple systems, and
lattice verdicts."""

from .clifford import (
    SIGNATURE_CAP,
    CliffordModule,
    CliffordSignature,
    build_module,
    verify_module,
)
from .errors import NilforgeError
from .exactlin import (
    MatrixSubspace,
    RationalMatrix,
    SignatureForm,
    char_poly,
    commutator,
    eta,
    inverse,
    kernel_basis,
    nu,
    rank,
    rat,
    rat_to_str,
    rational_roots,
    rref,
    signature,
    solve,
    trace_gram,
)
from .lattice import (
    LatticeVerdict,
    integer_rescale,
    lattice_verdict,
    pseudo_H_algebra,
    pseudo_H_pipeline_report,
)
from .nilpotent import (
    MetricAlgebra,
    NilpotentAlgebra2,
    ScalingOutcome,
    abelian_factor,
    algebra_from_J,
    bracket,
    derived_ideal,
    is_pseudo_H_type,
    j_map,
    scaling_isomorphism,
)
from .standardform import (
    StandardPseudoMetricAlgebra,
    apply_free_automorphism,
    eta_conjugate,
    eta_twist,
    find_realizations,
    free_algebra,
    free_bracket,
    free_isomorphism,
    gl_action,
    in_so,
    orbit_witness_check,
    quotient_by_center_subspace,
    reduction_isomorphism,
    so_basis,
    so_pair_signs,
    standard_algebra,
    structure_space,
)
from .triple import (
    TripleSystemReport,
    clifford_triple_report,
    clifford_triple_system,
    decomposition_checks,
    generated_algebra,
    generated_ideal,
    ideal_probe,
    killing_form,
    theta_closure,
    triple_center,
)

__version__ = "0.1.0"
