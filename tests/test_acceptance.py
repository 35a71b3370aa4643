"""Acceptance gate: the eight primary criteria, exact arithmetic, zero
tolerance.  Each criterion is one test emitting a single PASS line."""

import random
from fractions import Fraction
from math import comb

import pytest

from nilforge.catalog import heisenberg, n02, n11, n20
from nilforge.clifford import SIGNATURE_CAP, CliffordSignature, build_module, verify_module
from nilforge.exactlin import (
    MatrixSubspace,
    RationalMatrix,
    SpanBuilder,
    commutator,
    eta,
    rank,
    rat,
    signature,
    trace_gram,
)
from nilforge.lattice import pseudo_H_algebra, pseudo_H_pipeline_report
from nilforge.nilpotent import algebra_from_J, bracket, j_map
from nilforge.standardform import (
    eta_conjugate,
    eta_twist,
    free_bracket,
    gl_action,
    so_basis,
    structure_space,
    reduction_isomorphism,
)
from nilforge.triple import clifford_ideal_probe, clifford_triple_report

from helpers import _unit, matrix_to_sparse, random_adapted_algebra


def test_criterion_1_worked_example_goldens():
    """Structure matrices C^1, C^2 for n_{2,0} and n_{1,1} and all D-twist
    Grams match the published 4+2-dimensional worked examples exactly."""
    c20 = (
        RationalMatrix(((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0))),
        RationalMatrix(((0, 0, 0, 1), (0, 0, -1, 0), (0, 1, 0, 0), (-1, 0, 0, 0))),
    )
    c11 = (
        RationalMatrix(((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))),
        RationalMatrix(((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0))),
    )
    a20, a11 = n20(), n11()
    assert a20.structure == c20
    assert a11.structure == c11
    zero22 = RationalMatrix.zeros(2, 2)
    gram = lambda ma, p, q: trace_gram(
        eta_twist(structure_space(ma.algebra), p, q, "right")
    )
    assert gram(a20, 2, 2) == RationalMatrix(((-4, 0), (0, -4)))
    assert gram(a11, 2, 2) == RationalMatrix.diag([4, -4])
    for ma in (a20, a11):
        assert gram(ma, 3, 1) == zero22
        assert gram(ma, 1, 3) == zero22
    print("PASS criterion 1: worked-example structure matrices and D-twist Grams exact")


def test_criterion_2_trace_form_index_of_so_pq():
    """Signature of the trace-form Gram of so(p,q) is
    ((p(p-1)+q(q-1))/2, pq, 0) for all p+q <= 5."""
    for total in range(2, 6):
        for p in range(total + 1):
            q = total - p
            expected = ((p * (p - 1) + q * (q - 1)) // 2, p * q, 0)
            assert signature(trace_gram(so_basis(p, q))) == expected
    assert signature(trace_gram(so_basis(2, 2))) == (2, 4, 0)
    assert signature(trace_gram(so_basis(3, 1))) == (3, 3, 0)
    print("PASS criterion 2: so(p,q) trace-form index formula exact for p+q <= 5")


def test_criterion_3_reduction_isomorphisms_certify():
    """Every non-degenerate (p,q) realization of the catalog algebras, the
    Heisenberg algebra, and 20 seeded random adapted algebras (m <= 4)
    yields a certified reduction isomorphism; the homomorphism law is
    re-verified here on all basis pairs through the bracket map."""
    rng = random.Random(1234)
    instances = [n20(), n11(), n02(), heisenberg()] + [
        random_adapted_algebra(rng) for _ in range(20)
    ]
    realized = 0
    for ma in instances:
        a = ma.algebra
        for p in range(a.m + 1):
            q = a.m - p
            d = eta_twist(structure_space(a), p, q, "left")
            if signature(trace_gram(d))[2]:
                continue
            t, target = reduction_isomorphism(a, p, q)
            assert rank(t) == a.m + a.n
            dim = a.m + a.n
            for i in range(a.m):
                for j in range(i + 1, a.m):
                    x, y = _unit(dim, i), _unit(dim, j)
                    assert list(t.apply(bracket(a, x, y))) == list(
                        bracket(target.algebra, t.apply(x), t.apply(y))
                    )
            realized += 1
    assert realized > 0
    print(
        f"PASS criterion 3: {realized} reduction isomorphisms certified on all basis pairs"
    )


def test_criterion_4_clifford_modules_certified():
    """build_module passes verify_module for every (r,s) with
    1 <= r+s <= 6; all generator entries in {-1,0,1}."""
    count = 0
    for total in range(1, 7):
        for r in range(total + 1):
            module = build_module(CliffordSignature(r, total - r))
            report = verify_module(module)
            assert report["passed"], (r, total - r, report["checks"])
            assert all(
                x.denominator == 1 and abs(x.numerator) <= 1
                for g in module.generators
                for x in g.entries()
            )
            count += 1
    print(f"PASS criterion 4: all {count} Clifford modules certified, integer generators")


def test_criterion_5_lie_triple_systems():
    """For 2 <= r+s <= 6: W = J(R^{r,s}) is a Lie triple system with
    trivial center, dim L = n + n(n-1)/2, non-degenerate Killing form, and
    L = [L,L]; for (3,0) and (1,2) the two commuting 3-dim ideals certify."""
    for total in range(2, 7):
        for r in range(total + 1):
            s = total - r
            module = build_module(CliffordSignature(r, s))
            report = clifford_triple_report(module)
            assert report.is_triple
            assert report.center_dim == 0
            assert report.L_dim == total + total * (total - 1) // 2
            assert report.killing_signature[2] == 0
            assert report.cartan_certified
            l = report.L_basis
            derived = SpanBuilder()
            for a in range(l.dim):
                for b in range(a + 1, l.dim):
                    derived.add(matrix_to_sparse(commutator(l.basis[a], l.basis[b])))
            assert derived.dim == l.dim  # L = [L, L]
            if (r, s) in ((3, 0), (1, 2)):
                h_plus, h_minus = clifford_triple_report(module).special_split
                assert h_plus.dim == h_minus.dim == 3
    print("PASS criterion 5: Lie triple systems, Killing forms and ideal splits exact")


def test_criterion_6_lattice_pipeline():
    """pseudo_H_pipeline_report returns AdmitsLattice with verified integer
    structure constants for all r+s <= 4, including the internal trace
    identity.

    Deviation from the stated criterion text: the criterion prints the
    trace identity as -tr(J_{Z_i}^2) = -2l*nu_i, but criterion 4's square
    law J_{Z_i}^2 = -nu_i Id forces -tr(J_{Z_i}^2) = +2l*nu_i on a
    2l-dimensional module (trace of nu_i*Id).  The printed sign is
    unattainable simultaneously with the square law; the pipeline verifies
    the attainable identity -tr(J_{Z_i}^2) = 2l*nu_i exactly.
    """
    for total in range(1, 5):
        for r in range(total + 1):
            s = total - r
            rep = pseudo_H_pipeline_report(r, s)
            algebra, verdict = rep["algebra"], rep["verdict"]
            assert verdict.status == "AdmitsLattice"
            assert verdict.rescaled_constants_integer
            assert all(
                x.denominator == 1
                for c in algebra.structure
                for x in c.entries()
            )
            two_l = rep["two_l"]
            sig = CliffordSignature(r, s)
            assert rep["traces"] == [
                Fraction(two_l * sig.nu(i + 1)) for i in range(total)
            ]
    print("PASS criterion 6: lattice pipeline exact for r+s <= 4 (trace identity +2l*nu)")


def test_criterion_7_property_suites():
    """100-case seeded suites: Sylvester invariance, gl_action laws,
    free-algebra duality, bracket antisymmetry/Jacobi, and the J-map
    duality round-trip on all constructed instances."""
    # Sylvester invariance under 100 random congruences
    rng = random.Random(71)
    for _ in range(100):
        n = rng.randint(1, 4)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                rows[i][j] = rows[j][i] = v
        a = RationalMatrix(rows)
        while True:
            s = RationalMatrix(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            )
            if rank(s) == n:
                break
        assert signature(s.transpose() * a * s) == signature(a)

    # gl_action group laws and the transpose law
    rng = random.Random(72)
    for _ in range(100):
        m = rng.randint(2, 4)
        p = rng.randint(0, m)
        q = m - p
        w = so_basis(p, q)

        def inv(r=rng, mm=m):
            while True:
                x = RationalMatrix(
                    [[r.randint(-2, 2) for _ in range(mm)] for _ in range(mm)]
                )
                if rank(x) == mm:
                    return x

        a, b = inv(), inv()
        assert eta_conjugate(a * b, p, q) == eta_conjugate(b, p, q) * eta_conjugate(a, p, q)
        assert gl_action(a, gl_action(b, w, p, q), p, q).equals(gl_action(a * b, w, p, q))
        assert gl_action(RationalMatrix.identity(m), w, p, q).equals(w)

    # free-algebra duality: <[x,y], Z>_so = <Z x, y>_{p,q}
    rng = random.Random(73)
    for _ in range(100):
        m = rng.randint(2, 4)
        p = rng.randint(0, m)
        q = m - p
        x = tuple(rat(rng.randint(-3, 3)) for _ in range(m))
        y = tuple(rat(rng.randint(-3, 3)) for _ in range(m))
        w = so_basis(p, q)
        z = w.element([rng.randint(-2, 2) for _ in range(w.dim)])
        lhs = -(free_bracket(p, q, (x, None), (y, None)) * z).trace()
        e = eta(p, q)
        rhs = sum((u * v for u, v in zip(e.apply(z.apply(x)), y)), rat(0))
        assert lhs == rhs

    # bracket antisymmetry and Jacobi on 100 random elements
    rng = random.Random(74)
    for _ in range(100):
        ma = random_adapted_algebra(rng)
        dim = ma.m + ma.n
        x, y, z = ([rat(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(3))
        a = ma.algebra
        assert list(bracket(a, x, y)) == [-t for t in bracket(a, y, x)]
        triple_sum = [
            sum(t)
            for t in zip(
                bracket(a, x, bracket(a, y, z)),
                bracket(a, y, bracket(a, z, x)),
                bracket(a, z, bracket(a, x, y)),
            )
        ]
        assert all(t == 0 for t in triple_sum)

    # duality round-trip on all constructed instances
    rng = random.Random(75)
    instances = [n20(), n11(), n02(), heisenberg()]
    instances += [
        pseudo_H_algebra(build_module(CliffordSignature(r, total - r)))
        for total in range(1, 5)
        for r in range(total + 1)
    ]
    instances += [random_adapted_algebra(rng) for _ in range(20)]
    for ma in instances:
        js = [j_map(ma, _unit(ma.n, k)) for k in range(ma.n)]
        assert algebra_from_J(js, ma.form_V, ma.form_Z).structure == ma.structure
    print("PASS criterion 7: all five 100-case property suites exact, zero failures")


def test_criterion_8_two_of_three_law():
    """Across all constructed modules (and random single-entry tamperings)
    never exactly two of {skew-symmetry, orthogonality, square-law} pass."""
    rng = random.Random(88)
    checked = 0
    for total in range(1, 7):
        for r in range(total + 1):
            module = build_module(CliffordSignature(r, total - r))
            report = verify_module(module)
            assert report["checks"]["two_of_three"]
            checked += 1
            if total > 4:
                continue  # tampering sweep on the smaller modules
            form = module.module_form.matrix
            n = module.module_dim
            nus = [module.signature.nu(i + 1) for i in range(total)]
            ident = RationalMatrix.identity(n)
            for _ in range(10):
                gens = list(module.generators)
                idx = rng.randrange(len(gens))
                rows = [list(gens[idx].row(t)) for t in range(n)]
                rows[rng.randrange(n)][rng.randrange(n)] += rng.choice((-1, 1))
                gens[idx] = RationalMatrix(rows)
                skew = all(form * g.transpose() * form == -g for g in gens)
                orth = all(
                    g.transpose() * form * g == form.scale(nu)
                    for g, nu in zip(gens, nus)
                )
                square = all(
                    g * g == ident.scale(-nu) for g, nu in zip(gens, nus)
                )
                assert [skew, orth, square].count(True) != 2
    print(f"PASS criterion 8: two-of-three law holds on all {checked} modules and tamperings")


@pytest.mark.parametrize("r, s", [(4, 3), (8, 0)])
def test_signature_cap_sizes_certified(r, s):
    """One signature with r+s = 7 and one with r+s = 8 = SIGNATURE_CAP: the
    module certifies, the lattice pipeline certifies, and L = W + [W, W] is
    so(r+1, s): dim C(r+s+1, 2), a certified Cartan pair, the Killing
    signature ((r+1)s, C(r+1, 2) + C(s, 2), 0) and no ideal found."""
    n = r + s
    assert n <= SIGNATURE_CAP
    module = build_module(CliffordSignature(r, s))
    assert verify_module(module)["passed"]
    rep = pseudo_H_pipeline_report(r, s)
    assert rep["N"] == 2**n and rep["trace_identity"] and rep["gram_is_2l_eta"]
    assert rep["standard_iso_certified"] and rep["verdict"].rescaled_constants_integer
    report = clifford_triple_report(module)
    assert report.is_triple and report.cartan_certified and report.center_dim == 0
    assert report.L_dim == comb(n + 1, 2)
    assert report.killing_signature == ((r + 1) * s, comb(r + 1, 2) + comb(s, 2), 0)
    assert clifford_ideal_probe(module, 0) is None  # so(r+1, s) is simple here
    print(f"PASS signature ({r},{s}): module, lattice pipeline and so({r + 1},{s}) certified")
