"""A Clifford signature is a pair of exact ints.

``CliffordSignature(True, 1)`` would equal (1, 1) and hash the same, so the
memoized ``build_module`` would hand the module built for it to every later
(1, 1) caller, and that module would print ``"r": true``.  A float or a
string would fail later with a bare ``TypeError``.  Each is rejected when the
signature is made, before any work.
"""

import json

import numpy as np
import pytest

from nilforge import clifford
from nilforge.cli import canonical_json
from nilforge.clifford import CliffordSignature, build_module
from nilforge.errors import UnsupportedSignatureError


@pytest.mark.parametrize(
    "r, s",
    [(True, 1), (1, True), (False, 2), (1.5, 0), (1.0, 1), ("1", 1), (1, None), (np.int64(1), 1)],
)
def test_a_non_int_entry_is_rejected_before_any_work(monkeypatch, r, s):
    calls = []
    monkeypatch.setattr(clifford, "_pick_base", lambda *a: calls.append(a))
    with pytest.raises(UnsupportedSignatureError) as err:
        build_module(CliffordSignature(r, s))
    assert err.value.code == "ERR_UNSUPPORTED_SIGNATURE"
    assert calls == []


def test_the_int_signature_prints_int_fields():
    module = build_module(CliffordSignature(1, 1))
    obj = json.loads(canonical_json(module))
    assert [(type(obj[k]), obj[k]) for k in ("r", "s")] == [(int, 1), (int, 1)]


@pytest.mark.parametrize("r, s", [(0, 0), (-1, 2), (2, -1)])
def test_out_of_range_ints_are_still_rejected(r, s):
    with pytest.raises(UnsupportedSignatureError):
        CliffordSignature(r, s)
