"""so(p,q)'s basis from one integer array.

``exactlin.phi_matrices`` writes every phi_ij = -1/2 (E_ij - E_ji) eta_{p,q}
into one int64 array and hands out its slices as matrices, with no parse and
no ``Fraction``.  It is checked against the Python-rows construction it
replaced, for canonical form, for its ``DimError`` and for the free
algebra's build making no ``Fraction`` and no ``RationalMatrix(rows)``.
"""

from collections import Counter
from fractions import Fraction

import pytest
from test_canonical_form import assert_canonical

from nilforge import standardform
from nilforge.errors import DimError
from nilforge.exactlin import MatrixSubspace, RationalMatrix, nu, phi_matrices
from nilforge.standardform import so_basis

SIGNATURES = [(p, m - p) for m in range(9) for p in range(m + 1)]


def _rows_so_basis(p: int, q: int) -> MatrixSubspace:
    """The Python-rows construction: one Fraction-valued row list per phi_ij."""
    m = p + q
    half = Fraction(1, 2)
    basis = []
    for i in range(m):
        for j in range(i + 1, m):
            rows = [[0] * m for _ in range(m)]
            rows[i][j] = -nu(p, q, j + 1) * half
            rows[j][i] = nu(p, q, i + 1) * half
            basis.append(RationalMatrix(rows))
    return MatrixSubspace(m, basis)


@pytest.mark.parametrize("p, q", SIGNATURES)
def test_the_integer_basis_is_the_python_rows_basis(p, q):
    ours, ref = so_basis(p, q), _rows_so_basis(p, q)
    assert ours.ambient_dim == ref.ambient_dim == p + q
    assert ours.basis == ref.basis
    assert len(ours.basis) == (p + q) * (p + q - 1) // 2


@pytest.mark.parametrize("p, q", [(2, 1), (0, 4), (3, 3), (5, 3), (0, 8)])
def test_the_integer_basis_is_canonical(p, q):
    for phi in phi_matrices(p, q):
        assert_canonical(phi)
        assert phi._n.dtype.name == "int64"
        assert phi._d == 2  # the least D of entries +-1/2
        assert phi._max == 1
        assert hash(phi) == hash(RationalMatrix(phi.to_json()["entries"]))


@pytest.mark.parametrize("p, q", [(-1, 3), (3, -1)])
def test_a_negative_signature_raises_dim_error(p, q):
    with pytest.raises(DimError):
        so_basis(p, q)
    with pytest.raises(DimError):
        phi_matrices(p, q)


@pytest.fixture
def counts(monkeypatch):
    """Counts of Fraction constructions and RationalMatrix(rows) parses."""
    seen = Counter()

    def counted(name, f):
        def wrapper(*args, **kwargs):
            seen[name] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Fraction, "__new__", counted("Fraction", Fraction.__new__))
    monkeypatch.setattr(RationalMatrix, "__init__", counted("init", RationalMatrix.__init__))
    return seen


@pytest.mark.parametrize("p, q", [(4, 4), (0, 8)])
def test_the_free_algebra_builds_no_fraction_and_parses_no_rows(p, q, counts):
    f = standardform.free_algebra.__wrapped__(p, q)
    assert counts["Fraction"] == counts["init"] == 0
    assert f.W.dim == 28 and f.algebra.n == 28
