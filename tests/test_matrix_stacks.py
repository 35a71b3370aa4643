"""Lists written once: ``exactlin.StackText`` and the writer's scalar joins.

A list of matrices that share a shape of fewer than _STACK_MAX entries is
printed as one stack, one ``EntriesText._rows`` pass per denominator, and any
other list matrix by matrix; a list of ints or of Fractions is one join.
Each route is held to ``json.dumps(jsonify(x), indent=2, sort_keys=True)``,
and ``jsonify`` of a stack to each matrix's own ``to_json``: mixed D in one
list, int64 and Python-int N, 0 x 0 and k x 0 matrices, one-item lists,
entry counts either side of the gate, and each object that hands its list on
as a stack (a subspace's basis, a module's generators, an algebra's C).
"""

import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilforge import cli, exactlin
from nilforge.cli import canonical_json
from nilforge.clifford import CliffordModule, CliffordSignature, build_module
from nilforge.exactlin import (
    EntriesText,
    RationalMatrix,
    SignatureForm,
    StackText,
    _ratio_str,
    independent_subset,
    jsonify,
)
from nilforge.nilpotent import NilpotentAlgebra2
from nilforge.standardform import free_isomorphism

PROPS = settings(max_examples=200, deadline=None, derandomize=True)

HUGE = 2**62  # the least |N| that an int64 N does not hold


def _reference(x) -> str:
    return json.dumps(jsonify(x), indent=2, sort_keys=True) + "\n"


def _per_matrix(mats, objects: bool) -> list:
    """The list as each matrix's own to_json gives it."""
    return [m.to_json() if objects else m.to_json()["entries"] for m in mats]


class Raw:
    def __init__(self, value):
        self.value = value

    def to_json(self):
        return self.value


@st.composite
def _matrix(draw, rows: int, cols: int, antisymmetric: bool = False):
    """A rows x cols matrix over its own denominator: sparse, dense or with
    one entry of |N| at least 2**62, so that N holds Python ints."""
    d = draw(st.sampled_from([1, 2, 3, 6]))
    kind = draw(st.sampled_from(["sparse", "dense", "huge"]))
    small = st.integers(-3, 3) if kind == "dense" else st.sampled_from([0, 0, 0, 0, 1, -1])
    nums = [[draw(small) for _ in range(cols)] for _ in range(rows)]
    if kind == "huge" and rows and cols:
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        nums[i][j] = draw(st.sampled_from([HUGE, -HUGE, 3 * HUGE + 1]))
    if antisymmetric:
        nums = [[nums[i][j] - nums[j][i] for j in range(cols)] for i in range(rows)]
    return RationalMatrix([[Fraction(x, d) for x in row] for row in nums])


# 0 x 0 and k x 0 matrices, a stack of fewer than _TABLE_MIN entries, sparse
# rows through the row memo, and rows wider than they are long
SHAPES = [(0, 0), (3, 0), (1, 1), (2, 3), (5, 5), (8, 8), (3, 9), (16, 16)]


@st.composite
def _stacks(draw):
    rows, cols = draw(st.sampled_from(SHAPES))
    count = draw(st.integers(1, 6))
    return [draw(_matrix(rows, cols)) for _ in range(count)]


@PROPS
@given(_stacks(), st.booleans())
def test_a_stack_matches_json_dumps(mats, objects):
    stack = StackText(mats, objects)
    assert jsonify(stack) == _per_matrix(mats, objects)
    assert canonical_json(stack) == _reference(stack)
    nested = {"a": [stack, {"b": stack}], "c": Raw(1)}
    assert canonical_json(nested) == _reference(nested)


@PROPS
@given(st.lists(st.sampled_from([(2, 2), (2, 3), (3, 2), (0, 0)]), min_size=2), st.data())
def test_a_list_of_mixed_shapes_is_written_matrix_by_matrix(shapes, data):
    mats = [data.draw(_matrix(r, c)) for r, c in shapes]
    for objects in (False, True):
        stack = StackText(mats, objects)
        assert canonical_json(stack) == _reference(stack)


def test_an_empty_stack():
    for objects in (False, True):
        assert canonical_json(StackText((), objects)) == "[]\n"
        assert canonical_json({"x": StackText([], objects)}) == '{\n  "x": []\n}\n'


def test_mixed_denominators_keep_their_places():
    # D = 2, 1, 2, 3: two of the three groups hold one matrix, and the matrix
    # of each group sits between the others' in the list
    mats = [
        RationalMatrix([[Fraction(k + 1, d), 0, 0], [0, 0, Fraction(-1, d)], [0, 0, 0]])
        for k, d in enumerate([2, 1, 2, 3])
    ]
    for objects in (False, True):
        stack = StackText(mats, objects)
        assert jsonify(stack) == _per_matrix(mats, objects)
        assert canonical_json(stack) == _reference(stack)


@pytest.fixture
def row_passes(monkeypatch):
    seen = []
    real = EntriesText._rows

    def counted(n, d, inner, memo):
        seen.append(n.shape)
        return real(n, d, inner, memo)

    monkeypatch.setattr(EntriesText, "_rows", staticmethod(counted))
    return seen


def _sparse(rows: int, cols: int, d: int, shift: int) -> RationalMatrix:
    """rows x cols over D = d, 1/d at column i + shift of row i (mod cols)."""
    one = Fraction(1, d)
    return RationalMatrix(
        [[one if j == (i + shift) % cols else 0 for j in range(cols)] for i in range(rows)]
    )


@pytest.mark.parametrize("entries", [exactlin._STACK_MAX - 1, exactlin._STACK_MAX])
def test_the_gate_reads_entries_per_matrix(row_passes, entries):
    mats = [_sparse(1, entries, 2, 0), _sparse(1, entries, 2, 5)]
    stack = StackText(mats, True)
    assert canonical_json(stack) == _reference(stack)
    if entries < exactlin._STACK_MAX:
        assert row_passes == [(2, entries)]  # one pass over the stacked N's
    else:
        assert row_passes == [(1, entries), (1, entries)]  # one pass per matrix


def test_one_pass_per_denominator(row_passes):
    mats = [_sparse(4, 4, d, k) for k, d in enumerate([2, 1, 2, 1, 2])]
    stack = StackText(mats, False)
    assert canonical_json(stack) == _reference(stack)
    assert row_passes == [(12, 4), (8, 4)]


@pytest.fixture
def texts(monkeypatch):
    seen = Counter()

    def counted(n, d):
        seen["_ratio_str"] += 1
        return _ratio_str(n, d)

    monkeypatch.setattr(exactlin, "_ratio_str", counted)
    return seen


def test_the_stack_entry_count_picks_the_value_table(texts):
    # twenty sparse 5 x 5 over D = 2: the stack's 500 entries take the row
    # memo, and its 100 rows' leading entries, at least _TABLE_MIN, take their
    # texts from one table of 0 and 1/2; a lone 5 x 5 keeps its per-entry
    # join (test_entry_text)
    mats = [_sparse(5, 5, 2, k) for k in range(20)]
    canonical_json(StackText(mats, False))
    assert texts["_ratio_str"] <= 2


def test_the_free_phi_basis_builds_a_handful_of_texts(texts):
    basis = free_isomorphism(4, 4)["phi_basis"]  # 28 phi_ij of so(4,4), 8 x 8 over D = 2
    texts.clear()
    text = canonical_json(basis)
    assert texts["_ratio_str"] <= 4
    assert text == _reference(basis)


@PROPS
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_a_subspace_basis_is_a_stack(dim, count, data):
    mats = [data.draw(_matrix(dim, dim)) for _ in range(count)]
    space = independent_subset(dim, mats)
    assert canonical_json(space) == _reference(space)
    assert jsonify(space)["basis"] == _per_matrix(space.basis, True)


@PROPS
@given(st.integers(2, 4), st.integers(1, 4), st.data())
def test_an_algebra_c_is_a_stack(m, n, data):
    structure = tuple(data.draw(_matrix(m, m, antisymmetric=True)) for _ in range(n))
    algebra = NilpotentAlgebra2(m, n, structure)
    assert canonical_json(algebra) == _reference(algebra)
    assert jsonify(algebra)["C"] == _per_matrix(structure, False)


@PROPS
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_hand_built_module_generators_are_a_stack(size, count, data):
    gens = tuple(data.draw(_matrix(size, size)) for _ in range(count))
    form = SignatureForm(RationalMatrix.diag([1] * size))
    module = CliffordModule(CliffordSignature(1, 1), size, form, gens)
    assert canonical_json(module) == _reference(module)
    assert jsonify(module)["generators"] == _per_matrix(gens, True)


@pytest.mark.parametrize("r, s", [(1, 0), (2, 1), (3, 2), (4, 3)])
def test_built_modules_match_json_dumps(r, s):
    module = build_module(CliffordSignature(r, s))
    assert canonical_json(module) == _reference(module)


scalars = st.one_of(
    st.integers(),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.none(),
    st.fractions(max_denominator=50),
)


@PROPS
@given(
    st.one_of(
        st.lists(st.integers(), min_size=1),
        st.lists(st.booleans(), min_size=1),
        st.lists(st.none(), min_size=1),
        st.lists(st.fractions(max_denominator=50), min_size=1),
        st.lists(scalars, min_size=1),
        st.lists(st.one_of(st.integers(), st.booleans()), min_size=2),
    )
)
def test_scalar_lists_match_json_dumps(value):
    assert canonical_json(value) == _reference(value)
    assert canonical_json({"k": [value, tuple(value)]}) == _reference({"k": [value, value]})


def test_a_bool_is_not_joined_as_an_int():
    assert canonical_json([1, True, 0, False]) == "[\n  1,\n  true,\n  0,\n  false\n]\n"
    assert canonical_json([True, 1]) == "[\n  true,\n  1\n]\n"


def test_a_scalar_list_is_one_join(monkeypatch):
    calls = []
    real = cli._write_json

    def counted(x, nl, out):
        calls.append(x)
        real(x, nl, out)

    monkeypatch.setattr(cli, "_write_json", counted)
    value = {"ints": [3, -1, 2**80], "rats": [Fraction(1, 2), Fraction(-3), Fraction(0)]}
    assert canonical_json(value) == _reference(value)
    assert len(calls) == 3  # the dict and its two lists, no call per item


def test_a_fraction_in_a_to_json_result_is_still_rejected():
    # a to_json result is final: jsonify does not convert it, so json.dumps
    # and the writer both refuse a Fraction in it
    with pytest.raises(TypeError):
        _reference(Raw([Fraction(1, 2)]))
    with pytest.raises(TypeError):
        canonical_json(Raw([Fraction(1, 2)]))
    assert canonical_json(Raw([1, 2])) == "[\n  1,\n  2\n]\n"
