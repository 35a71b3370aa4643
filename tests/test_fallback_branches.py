"""Fallback branches: a degenerate quotient and a dependent J-list."""

from fractions import Fraction

from nilforge.exactlin import MatrixSubspace, RationalMatrix, SignatureForm, rank
from nilforge.nilpotent import algebra_from_J
from nilforge.standardform import free_algebra, quotient_by_center_subspace


def test_quotient_by_a_null_center_line_takes_the_greedy_complement():
    # in F_2(2,1) the trace form on so(2,1) is diag(1/2, -1/2, -1/2) on
    # (phi_01, phi_02, phi_12), so K = span(phi_01 + phi_02) is null and
    # lies in its own orthogonal complement
    f = free_algebra(2, 1)
    half = Fraction(1, 2)
    assert f.gram_W == RationalMatrix.diag([half, -half, -half])
    k = MatrixSubspace(3, [f.W.basis[0] + f.W.basis[1]])
    quotient, metric = quotient_by_center_subspace(f, k)
    assert metric is False
    assert quotient.m == 3 and quotient.n == 2
    # W -> W/K sends phi_ij to the quotient coordinates of [e_i, e_j]; it is
    # onto R^2 and kills K, so W = K (+) complement whatever complement was taken
    pairs = [(0, 1), (0, 2), (1, 2)]
    images = RationalMatrix([[c.entry(i, j) for i, j in pairs] for c in quotient.structure])
    assert rank(images) == 2
    assert list(images.apply((1, 1, 0))) == [0, 0]


def test_algebra_from_a_repeated_j_is_raw():
    j = RationalMatrix([[0, -1], [1, 0]])
    form = SignatureForm.standard(2, 0)
    algebra = algebra_from_J([j, j], form, form).algebra
    assert algebra.tag == "raw"
    assert algebra.n == 2 and algebra.structure[0] == algebra.structure[1]
