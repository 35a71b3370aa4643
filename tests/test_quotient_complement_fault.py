"""Fault injection for ``standardform.quotient_by_center_subspace``: a K (+)
complement that misses part of W must be rejected, not read as coordinates."""

import pytest

from nilforge import standardform
from nilforge.errors import HomomorphismError
from nilforge.exactlin import MatrixSubspace
from nilforge.standardform import free_algebra, quotient_by_center_subspace


@pytest.mark.parametrize("k_dim", [0, 1])
def test_a_complement_that_misses_w_is_rejected(monkeypatch, k_dim):
    # every span the quotient builds loses its last matrix, so K (+) C is one
    # dimension short of W on both the metric and the greedy path
    f = free_algebra(2, 1)
    k = MatrixSubspace(3, list(f.W.basis[:k_dim]))
    independent_subset = standardform.independent_subset
    monkeypatch.setattr(
        standardform, "independent_subset", lambda m, mats: independent_subset(m, list(mats)[:-1])
    )
    with pytest.raises(HomomorphismError):
        quotient_by_center_subspace(f, k)
