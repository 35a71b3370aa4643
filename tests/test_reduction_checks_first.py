"""``reduction_isomorphism`` rejects a (p, q) that does not sum to m before it
builds anything: no trace Gram is formed for an input it then refuses."""

import pytest

from nilforge import standardform
from nilforge.errors import DimError
from nilforge.exactlin import RationalMatrix
from nilforge.nilpotent import NilpotentAlgebra2


def test_a_wrong_sum_forms_no_trace_gram(monkeypatch):
    c = RationalMatrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    a = NilpotentAlgebra2(m=4, n=1, structure=(c,), tag="adapted")
    real, calls = standardform.eta_pairings, []

    def counted(mats, ps):
        calls.append(list(ps))
        return real(mats, ps)

    # the trace Grams are formed in standardform alone, by eta_pairings
    monkeypatch.setattr(standardform, "eta_pairings", counted)
    standardform.reduction_isomorphism(a, 2, 2)
    assert calls == [[2]]  # the counter sees the Gram of a valid (p, q)
    calls.clear()
    with pytest.raises(DimError):
        standardform.reduction_isomorphism(a, 1, 2)
    assert calls == []
