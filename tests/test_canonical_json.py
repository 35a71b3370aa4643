"""The canonical JSON writer against ``json.dumps(indent=2, sort_keys=True)``:
byte-identical on every value it accepts, a TypeError on every other."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilforge.cli import canonical_json
from nilforge.exactlin import RationalMatrix

PROPS = settings(max_examples=200, deadline=None, derandomize=True)


def _reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


class Raw:
    """A report value whose ``to_json`` is final, so the writer sees it as
    built: tuples, non-str keys and foreign scalars are not converted."""

    def __init__(self, value):
        self.value = value

    def to_json(self):
        return self.value


# surrogates included; the sampled pieces force quotes, backslashes, control
# and non-ASCII characters into short strings
SPECIAL = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", " ", "\ud800", "😀", "/"]
text = st.one_of(
    st.text(st.characters(exclude_categories=())),
    st.lists(st.sampled_from(SPECIAL)).map("".join),
)
integers = st.one_of(
    st.integers(),
    st.integers(min_value=2**63, max_value=2**200),
    st.integers(max_value=-1),
)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    integers,
    text,
    st.lists(text),  # the one-join path
    st.sampled_from([[], {}, ()]),  # empty containers at every depth
)
trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(text, children, max_size=5),
    ),
    max_leaves=40,
)


@PROPS
@given(trees)
def test_writer_matches_json_dumps(tree):
    assert canonical_json(tree) == _reference(tree)
    assert canonical_json(Raw(tree)) == _reference(tree)
    assert canonical_json({"nested": [Raw(tree), Raw(tree)]}) == _reference(
        {"nested": [tree, tree]}
    )


@pytest.mark.parametrize(
    "value",
    [
        ["a", 1, None, True],  # a list that starts as strings
        ["a", ["b"], {"c": []}],
        [False, 0, True, 1, -1],
        {"b": (), "a": {"": [[]]}, "A": "\"\\"},
        2**64,
        "",
        (),
    ],
)
def test_writer_matches_json_dumps_on_edge_cases(value):
    assert canonical_json(Raw(value)) == _reference(value)


@pytest.mark.parametrize(
    "value",
    [
        0.5,
        [1, 0.5],
        ["a", 0.5],  # a float after strings leaves the one-join path
        {"x": float("nan")},
        {1: "a"},
        {"a": {2: 3}},
        {1: "a", "b": 2},
        {None: 1},
        np.int64(3),
        ["a", np.int64(3)],
        {"k": np.bool_(True)},
        Fraction(1, 2),
        {"s": {1, 2}},
    ],
    ids=repr,
)
def test_writer_rejects_what_json_dumps_would_write_otherwise(value):
    with pytest.raises(TypeError):
        canonical_json(Raw(value))


@pytest.mark.parametrize(
    "matrix",
    [
        RationalMatrix.zeros(0, 3),
        RationalMatrix.zeros(3, 0),
        RationalMatrix.zeros(0, 0),
        RationalMatrix([[Fraction(1, 2), Fraction(-2, 3)], [Fraction(5, 6), 0]]),
        RationalMatrix([[2**70, -1], [0, 2**65]]),
        RationalMatrix([[Fraction(2**70, 3), 1]]),
    ],
    ids=["0x3", "3x0", "0x0", "D>1", "object", "object D>1"],
)
def test_matrices_match_json_dumps(matrix):
    assert canonical_json(matrix) == _reference(matrix.to_json())
    assert canonical_json({"m": [matrix]}) == _reference({"m": [matrix.to_json()]})


def test_matrix_text():
    assert canonical_json(RationalMatrix.zeros(2, 0)) == (
        '{\n  "cols": 0,\n  "entries": [\n    [],\n    []\n  ],\n  "rows": 2\n}\n'
    )
    half = RationalMatrix([[Fraction(1, 2), 2**70]])
    assert half._n.dtype == object
    assert canonical_json(half) == (
        '{\n  "cols": 2,\n  "entries": [\n    [\n      "1/2",\n'
        f'      "{2**70}"\n    ]\n  ],\n  "rows": 1\n}}\n'
    )
