"""``RationalMatrix.to_json``'s entry text against the per-entry reference
``_ratio_str(x, D)``, on both sides of the value-table gate (at least
_TABLE_MIN entries of an int64 N whose values span fewer integers than it
has entries), and the number of texts each path builds."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilforge.exactlin import RationalMatrix, _ratio_str, rat_to_str

from helpers import texts

PROPS = settings(max_examples=150, deadline=None, derandomize=True)

BIG = 2**62 - 1  # the largest |N_ij| an int64 N holds


def _reference(m):
    return [[_ratio_str(x, m._d) for x in row] for row in m._n.tolist()]


def _matrix(values, rows, cols, d):
    """The matrix (values / d) row-major; D stays d when some value is
    prime to d, as two consecutive values are together."""
    return RationalMatrix(
        [[Fraction(values[i * cols + j], d) for j in range(cols)] for i in range(rows)]
    )


@st.composite
def _numerators(draw, size):
    kind = draw(st.sampled_from(["small", "negative", "constant", "span", "outlier", "huge"]))
    if kind == "small":
        lo = draw(st.integers(-20, 20))
        hi = lo + draw(st.integers(0, 3))
        return draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size))
    if kind == "negative":
        return draw(st.lists(st.integers(-9, -1), min_size=size, max_size=size))
    if kind == "constant":
        return [draw(st.integers(-5, 5))] * size
    if kind == "span":
        # every value of [lo, lo + span) once, then repeats: the span is
        # size - 1 or size, either side of the gate
        span = max(size - draw(st.integers(0, 1)), 1)
        lo = draw(st.integers(-40, 40))
        values = list(range(lo, lo + span))
        values += [lo] * (size - len(values))
        return draw(st.permutations(values))
    outlier = draw(st.sampled_from([BIG, -BIG]))
    values = draw(st.lists(st.integers(-1, 1), min_size=size, max_size=size))
    if size:
        # one entry of |N| 2**62 - 1 (int64) or beyond (Python ints)
        values[draw(st.integers(0, size - 1))] = outlier if kind == "outlier" else outlier * 4
    return values


@PROPS
@given(st.data())
def test_to_json_matches_the_per_entry_reference(data):
    # entry counts 1, 25 and 63 below the gate, 64 to 132 at or above it
    shapes = [(1, 1), (5, 5), (7, 9), (8, 8), (9, 8), (4, 16), (12, 11), (2, 40)]
    rows, cols = data.draw(st.sampled_from(shapes))
    d = data.draw(st.sampled_from([1, 2, 6, 12]))
    m = _matrix(data.draw(_numerators(rows * cols)), rows, cols, d)
    obj = m.to_json()
    assert obj == {"rows": rows, "cols": cols, "entries": _reference(m)}
    assert obj["entries"] == [[rat_to_str(x) for x in m.row(i)] for i in range(rows)]
    assert RationalMatrix.from_json(obj) == m


@pytest.mark.parametrize("rows", [[], [[], [], []]])
def test_empty_matrices(rows):
    m = RationalMatrix(rows)
    assert m.to_json() == {"rows": m.rows, "cols": 0, "entries": [[]] * m.rows}


def test_a_large_ternary_matrix_builds_one_text_per_value(texts):
    m = _matrix([i % 3 - 1 for i in range(64 * 64)], 64, 64, 2)
    obj = m.to_json()
    assert texts["_ratio_str"] <= 3
    assert obj["entries"] == _reference(m)


def test_a_small_matrix_keeps_the_per_entry_path(texts):
    m = _matrix([i % 3 - 1 for i in range(25)], 5, 5, 2)
    m.to_json()
    assert texts["_ratio_str"] == 25


@pytest.mark.parametrize(
    "shape, span, calls",
    [((8, 8), 63, 63), ((8, 8), 64, 0), ((4, 16), 2, 2), ((7, 9), 2, 0), ((9, 7), 62, 0)],
)
def test_the_gate_reads_entry_count_and_span(texts, shape, span, calls):
    # D = 1 prints an entry as str(x), so only the table calls _ratio_str:
    # once per integer of the span, for 64 entries or more spanning fewer
    size = shape[0] * shape[1]
    values = list(range(-20, -20 + span)) + [-20] * (size - span)
    m = _matrix(values, *shape, 1)
    entries = m.to_json()["entries"]
    assert texts["_ratio_str"] == calls
    assert entries == _reference(m)
