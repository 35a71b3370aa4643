"""Lie triple systems and their generated algebras.

The Killing-form machinery is checked against the fully explicit so(3)
oracle: with the cross-product basis L1, L2, L3 the adjoint representation
is the identity representation, so B(L_i, L_j) = tr(L_i L_j) = -2 delta_ij
can be asserted without any of the library's ad/coordinate code.
"""

import random

import pytest

from nilforge.clifford import CliffordSignature, build_module
from nilforge.errors import NotClosedError
from nilforge.exactlin import (
    MatrixSubspace,
    RationalMatrix,
    SpanBuilder,
    commutator,
    independent_subset,
    signature,
)
from nilforge.standardform import so_basis, structure_space
from nilforge.triple import (
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

from helpers import matrix_to_sparse


def _so3_cross_basis():
    l1 = RationalMatrix(((0, 0, 0), (0, 0, -1), (0, 1, 0)))
    l2 = RationalMatrix(((0, 0, 1), (0, 0, 0), (-1, 0, 0)))
    l3 = RationalMatrix(((0, -1, 0), (1, 0, 0), (0, 0, 0)))
    return l1, l2, l3


# ---------------------------------------------------------------------------
# oracle: so(3) with the cross-product basis


def test_so3_oracle_structure():
    l1, l2, l3 = _so3_cross_basis()
    assert commutator(l1, l2) == l3
    assert commutator(l2, l3) == l1
    assert commutator(l3, l1) == l2


def test_killing_form_matches_so3_oracle():
    """In the cross-product basis ad_{L_i} has matrix L_i itself, so the
    Killing Gram is tr(L_i L_j) = -2 delta_ij."""
    w = MatrixSubspace(3, list(_so3_cross_basis()))
    expected = RationalMatrix.identity(3).scale(-2)
    assert killing_form(w) == expected
    assert signature(killing_form(w))[2] == 0
    report = generated_algebra(w)
    assert report.is_triple
    assert report.L_dim == 3  # so(3) is already closed
    assert report.killing == expected
    assert report.killing_signature == (0, 3, 0)
    assert report.cartan_certified


def test_killing_form_rejects_non_closed_span():
    l1, l2, _ = _so3_cross_basis()
    with pytest.raises(NotClosedError):
        killing_form(MatrixSubspace(3, [l1, l2]))


# ---------------------------------------------------------------------------
# triple-system predicates


def test_two_dim_span_in_so3_is_triple():
    l1, l2, _ = _so3_cross_basis()
    w = MatrixSubspace(3, [l1, l2])
    assert generated_algebra(w).is_triple
    report = generated_algebra(w)
    assert report.L_dim == 3
    assert report.cartan_certified


def test_non_triple_subspace_detected():
    # [b, [a, b]] = -E13 + 2 E21 leaves span{a, b}
    a = RationalMatrix(((0, 1, 0), (0, 0, 0), (0, 0, 0)))
    b = RationalMatrix(((0, 0, 1), (1, 0, 0), (0, 0, 0)))
    w = MatrixSubspace(3, [a, b])
    assert not generated_algebra(w).is_triple
    report = generated_algebra(w)
    assert not report.is_triple
    assert report.killing is None
    assert not report.cartan_certified


def test_triple_center_of_commuting_span():
    # phi_12 and phi_34 in so(4) commute: the triple center is everything
    basis = so_basis(4, 0).basis
    # so_basis orders pairs lexicographically: (0,1),(0,2),(0,3),(1,2),(1,3),(2,3)
    w = MatrixSubspace(4, [basis[0], basis[5]])
    assert triple_center(w).dim == 2
    l1, l2, _ = _so3_cross_basis()
    assert triple_center(MatrixSubspace(3, [l1, l2])).dim == 0


# ---------------------------------------------------------------------------
# Clifford triple systems


def test_clifford_triple_reports_2_to_6():
    for total in range(2, 7):
        for r in range(total + 1):
            module = build_module(CliffordSignature(r, total - r))
            report = clifford_triple_report(module)
            n = total
            assert report.is_triple, (r, total - r)
            assert report.center_dim == 0
            assert report.L_dim == n + n * (n - 1) // 2
            assert report.cartan_certified
            assert report.killing_signature[2] == 0
            if (r, total - r) in ((3, 0), (1, 2)):
                assert report.special_split is not None
            else:
                assert report.special_split is None


def test_special_ideal_split_structure():
    for r, s in ((3, 0), (1, 2)):
        module = build_module(CliffordSignature(r, s))
        h_plus, h_minus = clifford_triple_report(module).special_split
        assert h_plus.dim == 3 and h_minus.dim == 3
        zero = RationalMatrix.zeros(module.module_dim, module.module_dim)
        for x in h_plus.basis:
            for y in h_minus.basis:
                assert commutator(x, y) == zero
        span = SpanBuilder()
        for b in list(h_plus.basis) + list(h_minus.basis):
            assert span.add(matrix_to_sparse(b))
        assert span.dim == 6
        # each summand is itself a 3-dim simple algebra: nondegenerate Killing
        assert signature(killing_form(h_plus))[2] == 0
        assert signature(killing_form(h_minus))[2] == 0


def test_decomposition_checks_clifford():
    for r, s in ((2, 0), (1, 2), (0, 3)):
        module = build_module(CliffordSignature(r, s))
        out = decomposition_checks(clifford_triple_system(module))
        assert out["is_triple"]
        assert out["center_W_dim"] == 0
        assert out["center_L_dim"] == 0
        assert out["centers_equal_dim"]
        assert out["derived_L_dim"] == out["L_dim"]  # L = [L, L]
        assert out["L_is_center_plus_derived"]
        assert out["trivial_center_implies_perfect"]


def test_decomposition_checks_non_triple():
    a = RationalMatrix(((0, 1, 0), (0, 0, 0), (0, 0, 0)))
    b = RationalMatrix(((0, 0, 1), (1, 0, 0), (0, 0, 0)))
    assert decomposition_checks(MatrixSubspace(3, [a, b])) == {"is_triple": False}


# ---------------------------------------------------------------------------
# theta closure of the twist pair


def test_theta_swaps_left_and_right_twists():
    """theta(C eta) = eta C: theta maps the right twist onto the left one."""
    from nilforge.catalog import n11, n20
    from nilforge.standardform import eta_twist

    for ma in (n20(), n11()):
        c = structure_space(ma.algebra)
        d_right = eta_twist(c, 2, 2, "right")
        d_left = eta_twist(c, 2, 2, "left")
        out = theta_closure(d_right, d_left, 2, 2)
        assert out["theta_maps_D1_onto_D2"]
        assert out["sum_transpose_closed"]
        assert out["sum_theta_invariant"]
        assert out["theta_is_isometry_on_D1"]
        assert out["all"]


# ---------------------------------------------------------------------------
# generated ideals and the seeded probe


def test_generated_ideal_inside_split_sum():
    module = build_module(CliffordSignature(3, 0))
    h_plus, h_minus = clifford_triple_report(module).special_split
    report = generated_algebra(clifford_triple_system(module))
    l = report.L_basis
    ideal = generated_ideal(l, h_plus.basis[0])
    assert ideal.dim == 3
    assert all(h_plus.contains(b) for b in ideal.basis)
    # a generic element with parts in both summands generates everything
    both = h_plus.basis[0] + h_minus.basis[0]
    assert generated_ideal(l, both).dim == 6


def test_generated_ideal_basis_matches_full_closure():
    # growth stops once the ideal fills L; the basis is still the full closure's
    rng = random.Random(3)
    for r, s in ((3, 0), (2, 1), (1, 2)):
        l = clifford_triple_report(build_module(CliffordSignature(r, s))).L_basis
        for _ in range(3):
            x = l.element([rng.randint(-2, 2) for _ in range(l.dim)])
            basis, frontier = [], [x]
            if independent_subset(l.ambient_dim, [x]).dim:
                basis.append(x)
            while frontier:
                new = []
                for y in frontier:
                    for b in l.basis:
                        c = commutator(b, y)
                        if independent_subset(l.ambient_dim, basis + [c]).dim > len(basis):
                            basis.append(c)
                            new.append(c)
                frontier = new
            assert generated_ideal(l, x).basis == tuple(basis)


def test_generated_ideal_requires_membership():
    l1, l2, l3 = _so3_cross_basis()
    l = MatrixSubspace(3, [l1, l2, l3])
    with pytest.raises(NotClosedError):
        generated_ideal(l, RationalMatrix.identity(3))


def test_ideal_probe_finds_witness_in_abelian_algebra():
    # commuting span: every nonzero element generates a proper 1-dim ideal
    basis = so_basis(4, 0).basis
    l = MatrixSubspace(4, [basis[0], basis[5]])
    found = ideal_probe(l, seed=0)
    assert found is not None
    assert found["ideal_dim"] == 1
    assert 0 < found["ideal_dim"] < l.dim


def test_ideal_probe_none_on_simple_algebra():
    l1, l2, l3 = _so3_cross_basis()
    l = MatrixSubspace(3, [l1, l2, l3])
    assert ideal_probe(l, seed=0, trials=8) is None


def test_ideal_probe_deterministic_per_seed():
    module = build_module(CliffordSignature(1, 2))
    report = generated_algebra(clifford_triple_system(module))
    a = ideal_probe(report.L_basis, seed=5)
    b = ideal_probe(report.L_basis, seed=5)
    assert a == b
