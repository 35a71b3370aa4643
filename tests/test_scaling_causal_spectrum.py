"""``scaling_isomorphism`` reads the causal type off the spectrum of S.

A negative rational root of S = G1^{-1} G2 is a causal flip whatever basis
its eigenspace is given, so the function rejects it before any eigenvector
is computed.  Two inputs that a check on the returned eigenvectors misses:

- G1 = H + H and G2 = H + (-H), H the hyperbolic plane: the -1 eigenspace
  comes back as two null vectors;
- G1 = I_6 and G2 = A (x) I_2 with A = (-1) + [[1, 1], [1, -1]]: S does not
  split over Q, so no eigenvector is computed at all.

Each rejection is shown by a witness vector on which the two forms have
opposite signs, built as in the function's docstring.
"""

from fractions import Fraction

import pytest

from nilforge.errors import PreconditionError
from nilforge.exactlin import (
    RationalMatrix,
    SignatureForm,
    block_diag,
    char_poly,
    kernel_basis,
    rational_roots,
)
from nilforge.nilpotent import _rational_sqrt, algebra_from_J, scaling_isomorphism
import test_scaling_preconditions

H = RationalMatrix([[0, 1], [1, 0]])
ROT = RationalMatrix([[0, 1], [-1, 0]])
FORM_Z = SignatureForm.standard(1, 0)


def _null_eigenspace():
    j = RationalMatrix.diag([1, -1, 1, -1])  # skew for both forms
    return (
        algebra_from_J([j], SignatureForm(block_diag(H, H)), FORM_Z),
        algebra_from_J([j], SignatureForm(block_diag(H, -H)), FORM_Z),
    )


def _no_rational_split():
    j = block_diag(ROT, block_diag(ROT, ROT))  # commutes with every A (x) I_2
    a = RationalMatrix([[-1, 0, 0], [0, 1, 1], [0, 1, -1]])
    g2 = RationalMatrix(
        [[a.entry(i // 2, k // 2) if i % 2 == k % 2 else 0 for k in range(6)] for i in range(6)]
    )
    return (
        algebra_from_J([j], SignatureForm(RationalMatrix.identity(6)), FORM_Z),
        algebra_from_J([j], SignatureForm(g2), FORM_Z),
    )


CASES = {"null-eigenspace": _null_eigenspace, "no-rational-split": _no_rational_split}


def _scaling(a1, a2):
    return a1.form_V.inverse_matrix() * a2.form_V.matrix


def _opposite(a1, a2, u) -> bool:
    return a1.form_V.pair(u, u) * a2.form_V.pair(u, u) < 0


def _witness(a1, a2, lam):
    """The docstring's witness for the root lam < 0: an eigenvector x if it is
    non-null, else x + t y with <x, y>_1 != 0 and t = 1, 1/2, 1/4, ..."""
    m = a1.m
    x = kernel_basis(_scaling(a1, a2) - RationalMatrix.identity(m).scale(lam))[0]
    if a1.form_V.pair(x, x) != 0:
        return tuple(x)
    units = RationalMatrix.identity(m)
    y = next(units.row(i) for i in range(m) if a1.form_V.pair(x, units.row(i)) != 0)
    for k in range(64):
        u = tuple(a + Fraction(1, 2**k) * b for a, b in zip(x, y))
        if _opposite(a1, a2, u):
            return u
    raise AssertionError("no small t gives opposite signs")


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_negative_root_is_rejected(case):
    a1, a2 = CASES[case]()
    with pytest.raises(PreconditionError):
        scaling_isomorphism(a1, a2)


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_rejection_has_a_witness(case):
    a1, a2 = CASES[case]()
    roots, _ = rational_roots(char_poly(_scaling(a1, a2)))
    negative = [lam for lam in roots if lam < 0]
    assert negative == [-1]
    assert _opposite(a1, a2, _witness(a1, a2, negative[0]))


def test_the_null_case_hides_from_its_eigenvectors():
    a1, a2 = _null_eigenspace()
    s = _scaling(a1, a2)
    assert s == RationalMatrix.diag([1, 1, -1, -1])
    ker = kernel_basis(s + RationalMatrix.identity(4))
    assert all(a.form_V.pair(x, x) == 0 for x in ker for a in (a1, a2))
    assert _witness(a1, a2, -1) == (0, 0, 1, 1)  # <,>_1 = 2, <,>_2 = -2


def test_the_irrational_case_is_flipped_on_e1():
    a1, a2 = _no_rational_split()
    _, remainder = rational_roots(char_poly(_scaling(a1, a2)))
    assert remainder != 0  # the char poly is ((t + 1)(t^2 - 2))^2
    e1 = (1, 0, 0, 0, 0, 0)
    assert (a1.form_V.pair(e1, e1), a2.form_V.pair(e1, e1)) == (1, -1)
    assert _witness(a1, a2, -1) == e1


def _parent_rational_sqrt(x):
    return None if x < 0 else _rational_sqrt(x)


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_per_eigenvector_check_missed_both(case, monkeypatch):
    """The check that paired each computed eigenvector with itself, as kept
    verbatim in test_scaling_preconditions, returned an ordinary outcome; its
    square root still read a negative root as irrational."""
    monkeypatch.setattr(test_scaling_preconditions, "_rational_sqrt", _parent_rational_sqrt)
    outcome = test_scaling_preconditions._parent_scaling_isomorphism(*CASES[case]())
    assert outcome.status == "irrational-scaling"
