"""Hypothesis properties: Sylvester's law of inertia for ``signature``, the
JSON loaders on arbitrary small JSON values, and the text of matrix entries."""

import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nilforge.clifford import CliffordModule
from nilforge.errors import BadInputError, NilforgeError
from nilforge.exactlin import (
    MatrixSubspace,
    RationalMatrix,
    SignatureForm,
    rank,
    rat_to_str,
    signature,
)
from nilforge.nilpotent import NilpotentAlgebra2

PROPS = settings(max_examples=150, deadline=None, derandomize=True)

rationals = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3, 5]))


# ---------------------------------------------------------------------------
# signature(P^T S P) == signature(S)


@st.composite
def congruences(draw):
    """A symmetric S, zero on the diagonal about half the time (so only the
    hyperbolic-pair step can pivot), and an invertible P."""
    n = draw(st.integers(1, 5))
    zero_diagonal = draw(st.booleans())
    s = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        if not zero_diagonal:
            s[i][i] = draw(rationals)
        for j in range(i + 1, n):
            s[i][j] = s[j][i] = draw(rationals)
    p = RationalMatrix(
        draw(st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n))
    )
    assume(rank(p) == n)
    return RationalMatrix(s), p


@PROPS
@given(congruences())
def test_signature_is_a_congruence_invariant(case):
    s, p = case
    inertia = signature(s)
    assert sum(inertia) == s.rows
    assert signature(p.transpose() * s * p) == inertia


def test_zero_diagonal_congruence_uses_hyperbolic_pairs():
    # [[0, 1], [1, 0]] has no diagonal pivot, yet signature (1, 1, 0)
    h = RationalMatrix(((0, 1), (1, 0)))
    p = RationalMatrix(((1, 2), (3, 5)))
    assert signature(h) == signature(p.transpose() * h * p) == (1, 1, 0)


# ---------------------------------------------------------------------------
# loaders return or raise a NilforgeError, whatever JSON they are given

KEYS = (
    "entries", "rows", "cols", "ambient", "basis", "m", "n", "C", "form_V",
    "form_Z", "tag", "symbolic", "r", "s", "N", "eta", "generators",
)

leaves = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.sampled_from([0.5, -1.0, 1e300])
    | st.sampled_from(["0", "1", "-1/2", "1/0", "2/3/4", "x", "", "adapted", "raw"])
    | st.text(max_size=3)
)
json_values = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=2), children, max_size=5),
    max_leaves=16,
)
# matrix-shaped values reach past the first type checks
matrices = st.lists(st.lists(leaves, max_size=3), max_size=3)
matrix_objects = st.fixed_dictionaries(
    {"entries": matrices}, optional={"rows": json_values, "cols": json_values}
)
values = json_values | matrices | matrix_objects


def _objects(keys):
    """Dicts holding the loader's keys, each with an arbitrary value."""
    return st.fixed_dictionaries({}, optional={k: values for k in keys})


LOADERS = {
    "RationalMatrix": (RationalMatrix.from_json, _objects(("entries", "rows", "cols"))),
    "SignatureForm": (SignatureForm.from_json, _objects(("entries", "rows", "cols"))),
    "MatrixSubspace": (
        MatrixSubspace.from_json,
        st.fixed_dictionaries(
            {}, optional={"ambient": json_values, "basis": st.lists(values, max_size=3)}
        ),
    ),
    "NilpotentAlgebra2": (
        NilpotentAlgebra2.from_json,
        _objects(("m", "n", "C", "form_V", "form_Z", "tag", "symbolic")),
    ),
    "CliffordModule": (
        CliffordModule.from_json,
        _objects(("r", "s", "N", "eta", "generators")),
    ),
}


@st.composite
def loader_inputs(draw):
    name = draw(st.sampled_from(sorted(LOADERS)))
    load, shaped = LOADERS[name]
    obj = draw(shaped | values)
    # whatever a loader gets must have come out of a JSON document
    return name, load, json.loads(json.dumps(obj))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(loader_inputs())
def test_loaders_return_or_raise_nilforge_errors(case):
    name, load, obj = case
    try:
        load(obj)
    except NilforgeError:
        pass


def test_loaders_reject_ill_typed_fields():
    good_module = {"r": 1, "s": 0, "N": 2, "eta": [1, 1], "generators": []}
    good_algebra = {"m": 2, "n": 1, "C": [[[0, 1], [-1, 0]]], "tag": "adapted"}
    cases = [
        (CliffordModule.from_json, {"r": True, "s": 0, "N": "x", "eta": [], "generators": []}),
        (CliffordModule.from_json, {**good_module, "s": False}),
        (CliffordModule.from_json, {**good_module, "N": "x"}),
        (CliffordModule.from_json, {**good_module, "N": 3}),
        (CliffordModule.from_json, {**good_module, "generators": [{"entries": [[0]]}]}),
        (MatrixSubspace.from_json, {"ambient": "x", "basis": []}),
        (MatrixSubspace.from_json, {"ambient": -2, "basis": []}),
        (MatrixSubspace.from_json, {"ambient": True, "basis": []}),
        (MatrixSubspace.from_json, {"ambient": 2, "basis": {}}),
        (RationalMatrix.from_json, {"entries": [[1]], "rows": True}),
        (RationalMatrix.from_json, {"entries": [[1]], "cols": 1.0}),
        (SignatureForm.from_json, {"entries": [[1]], "rows": True, "cols": True}),
        *(
            (NilpotentAlgebra2.from_json, {**good_algebra, "symbolic": v})
            for v in ("false", 0, 1, None)
        ),
        *(
            (NilpotentAlgebra2.from_json, {**good_algebra, key: v})
            for key in ("form_V", "form_Z")
            for v in (0, False, "", [], {}, [[1, 0], [0, 1]])
        ),
    ]
    for load, obj in cases:
        with pytest.raises(BadInputError):
            load(obj)
    assert CliffordModule.from_json(good_module).module_dim == 2
    assert MatrixSubspace.from_json({"ambient": 0, "basis": []}).dim == 0
    assert RationalMatrix.from_json({"entries": [[1]], "rows": 1, "cols": 1}).rows == 1
    for symbolic in (False, True):
        loaded = NilpotentAlgebra2.from_json({**good_algebra, "symbolic": symbolic})
        assert loaded.symbolic is symbolic
    null_forms = NilpotentAlgebra2.from_json({**good_algebra, "form_V": None, "form_Z": None})
    assert null_forms.form_V is None and null_forms.form_Z is None


# ---------------------------------------------------------------------------
# matrix text: printed straight from (N, D), entry by entry as rat_to_str


def _reference_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@st.composite
def text_matrices(draw):
    """Empty shapes included; numerators small, negative, zero or past the
    int64 bound; denominators mixed so D is their lcm."""
    rows = draw(st.integers(0, 4))
    cols = draw(st.integers(0, 4))
    nums = st.integers(-6, 6) | st.integers(-(2**70), 2**70)
    dens = st.sampled_from([1, 1, 1, 2, 3, 4, 6, 9, 2**63 + 1])
    return RationalMatrix(
        [[Fraction(draw(nums), draw(dens)) for _ in range(cols)] for _ in range(rows)]
    )


def _check_text(m: RationalMatrix) -> None:
    entries = m.to_json()["entries"]
    assert len(entries) == m.rows
    for i, row in enumerate(entries):
        assert row == [rat_to_str(m.entry(i, j)) for j in range(m.cols)]
        assert row == [_reference_text(x) for x in m.row(i)]
    body = "; ".join(" ".join(map(rat_to_str, m.row(i))) for i in range(m.rows))
    assert repr(m) == f"RationalMatrix[{body}]"


@PROPS
@given(text_matrices())
def test_matrix_text_agrees_with_rat_to_str(m):
    _check_text(m)


def test_matrix_text_covers_both_numerator_dtypes():
    f = Fraction
    cases = [
        RationalMatrix([]),
        RationalMatrix([[], []]),
        RationalMatrix([[0, -3], [7, 0]]),
        RationalMatrix([[f(1, 2), f(-2, 3)], [0, f(4, 6)]]),
        RationalMatrix([[2**70, -(2**70)], [0, 1]]),
        RationalMatrix([[f(2**70, 3), f(-1, 2)], [0, f(5, 6)]]),
    ]
    assert {str(m._n.dtype) for m in cases} == {"int64", "object"}
    assert cases[3].to_json()["entries"] == [["1/2", "-2/3"], ["0", "2/3"]]
    assert repr(cases[2]) == "RationalMatrix[0 -3; 7 0]"
    for m in cases:
        _check_text(m)
    for x in (f(0), f(-5), f(3, 7), f(-(2**70), 3)):
        assert rat_to_str(x) == _reference_text(x)
