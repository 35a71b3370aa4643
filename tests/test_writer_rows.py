"""The canonical writer's one-join-per-row path: a list of non-empty lists
of strings (a matrix's ``entries``) against ``json.dumps(indent=2,
sort_keys=True)``, with empty rows, bare strings among the rows, escapes
and non-ASCII text falling back or passing through unchanged."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from nilforge import cli
from nilforge.cli import canonical_json
from nilforge.exactlin import RationalMatrix

PROPS = settings(max_examples=300, deadline=None, derandomize=True)

SPECIAL = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "ß", "\ud800", "😀", "/", "1/2"]
text = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=6),
    st.lists(st.sampled_from(SPECIAL), max_size=4).map("".join),
)
rows = st.one_of(
    st.lists(text, min_size=1, max_size=5),  # the one-join row
    st.lists(text, max_size=0),  # an empty row
    st.lists(text, min_size=1, max_size=3).map(tuple),
    text,  # a bare string among the rows
)
matrices = st.lists(rows, min_size=1, max_size=5)


def _reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


class Raw:
    def __init__(self, value):
        self.value = value

    def to_json(self):
        return self.value


@PROPS
@given(matrices)
def test_rows_of_strings_match_json_dumps(value):
    assert canonical_json(Raw(value)) == _reference(value)
    nested = {"m": [Raw(value), {"entries": Raw(value)}], "n": Raw([value])}
    assert canonical_json(nested) == _reference({"m": [value, {"entries": value}], "n": [value]})


@PROPS
@given(st.lists(st.lists(st.one_of(text, st.integers(), st.none()), min_size=1), min_size=1))
def test_rows_that_are_not_all_strings_match_json_dumps(value):
    assert canonical_json(Raw(value)) == _reference(value)


def test_a_matrix_is_written_without_a_call_per_row(monkeypatch):
    calls = []
    real = cli._write_json

    def counted(x, nl, out):
        calls.append(x)
        real(x, nl, out)

    monkeypatch.setattr(cli, "_write_json", counted)
    m = RationalMatrix([[1, -2, 3], [0, 1, 5], [7, 8, 9]])
    assert canonical_json(m) == _reference(m.to_json())
    # the object, then its three values; the entries' rows take no call
    assert len(calls) == 4
