"""The canonical writer quotes a matrix's rows at once: when quoting all
their text adds only the two quotes, no entry needs an escape and each row is
one join with the quotes in its separators.  Entries that need an escape keep
the quote per entry and still match ``json.dumps``."""

import json

import pytest

from nilforge import cli
from nilforge.cli import canonical_json
from nilforge.exactlin import RationalMatrix


def _reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


class Raw:
    def __init__(self, value):
        self.value = value

    def to_json(self):
        return self.value


@pytest.fixture
def quotes(monkeypatch):
    calls = []
    real = cli._quote

    def counted(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(cli, "_quote", counted)
    return calls


def test_a_large_ternary_matrix_is_quoted_a_bounded_number_of_times(quotes):
    m = RationalMatrix([[(i * 7 + j * 3) % 3 - 1 for j in range(64)] for i in range(64)])
    text = canonical_json(m)
    assert text == _reference(m.to_json())
    # three keys and one pass over all the entries' text, not 4096 entries
    assert len(quotes) <= 8


@pytest.mark.parametrize(
    "entry", ['"', "\\", "\n", "\x7f", "é", "😀", "\ud800", "a\tb"], ids=repr
)
def test_an_entry_that_needs_an_escape_matches_json_dumps(quotes, entry):
    rows = [["1", "-1/2"], ["0", entry], ["3", "4"]]
    assert canonical_json(Raw(rows)) == _reference(rows)
    assert canonical_json({"m": Raw(rows), "n": Raw([rows])}) == _reference({"m": rows, "n": [rows]})
    # each entry is quoted on its own
    assert entry in quotes


def test_rows_without_escapes_match_json_dumps():
    for rows in ([["1"]], [["a", "b/c"], ["", "d"]], [("x", "y"), ["z", "/"]]):
        assert canonical_json(Raw(rows)) == _reference([list(r) for r in rows])
