"""``orbit-check`` rejects a W1 outside so(p,q) as input.

W1 comes from the user, so a basis matrix outside so(p,q) is
``ERR_PRECONDITION`` (exit 2), not ``ERR_HOMOMORPHISM``, the code kept for
an internal certificate failing: exit 3 for a failed certificate.  It is
rejected before any product or rank, and after the ambient checks.
"""

import pytest

from nilforge.errors import DimensionMismatchError, PreconditionError
from nilforge.exactlin import MatrixSubspace, RationalMatrix
from nilforge.standardform import orbit_witness_check, so_basis
from test_orbit_check_ambient import _orbit_check, no_products  # noqa: F401

I2 = RationalMatrix.identity(2)


def test_a_source_outside_so_is_an_input_error(tmp_path, capsys, no_products):
    w = MatrixSubspace(2, [I2]).to_json()
    code, out = _orbit_check(tmp_path, capsys, I2.to_json(), w, w, 2, 0)
    assert (code, out["error"]) == (2, "ERR_PRECONDITION")
    assert no_products == []


def test_the_ambient_is_checked_first():
    w1 = MatrixSubspace(3, [RationalMatrix.identity(3)])
    with pytest.raises(DimensionMismatchError):
        orbit_witness_check(I2, w1, so_basis(2, 0), 2, 0)


def test_a_source_with_one_basis_matrix_outside_so_is_rejected():
    # in so(1,1) the symmetric off-diagonal matrix lies, the rotation does not
    w1 = MatrixSubspace(2, [so_basis(1, 1).basis[0], RationalMatrix([[0, 1], [-1, 0]])])
    with pytest.raises(PreconditionError):
        orbit_witness_check(I2, w1, so_basis(1, 1), 1, 1)
