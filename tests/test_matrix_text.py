"""Matrices reached through reports, printed by the canonical writer straight
from (N, D), against ``json.dumps(jsonify(x), indent=2, sort_keys=True)``:
every kind of row ``EntriesText`` tells apart (zero, one nonzero from the
row memo, more than one joined), bare and nested in the objects that hand
their matrices to the writer."""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from nilforge.cli import canonical_json
from nilforge.clifford import CliffordModule, CliffordSignature
from nilforge.exactlin import MatrixSubspace, RationalMatrix, SignatureForm, jsonify
from nilforge.nilpotent import NilpotentAlgebra2

PROPS = settings(max_examples=200, deadline=None, derandomize=True)

BIG = 2**62


def _reference(value) -> str:
    return json.dumps(jsonify(value), indent=2, sort_keys=True) + "\n"


def _check(value) -> None:
    assert canonical_json(value) == _reference(value)


def _signed_permutation(order, signs, d=1) -> RationalMatrix:
    n = len(order)
    return RationalMatrix(
        [[Fraction(signs[i], d) if j == order[i] else 0 for j in range(n)] for i in range(n)]
    )


denominators = st.sampled_from([1, 1, 2, 3, 6, 64])


@st.composite
def monomials(draw):
    n = draw(st.integers(1, 40))
    order = draw(st.permutations(range(n)))
    values = st.sampled_from([1, -1]) if draw(st.booleans()) else st.integers(-9, 9).filter(bool)
    signs = draw(st.lists(values, min_size=n, max_size=n))
    return _signed_permutation(order, signs, draw(denominators))


@st.composite
def sparse(draw):
    # 0 to 3 nonzeros a row, now and then a dense one
    rows, cols = draw(st.integers(1, 6)), draw(st.sampled_from([3, 8, 16, 32, 48, 64]))
    d, out = draw(denominators), []
    for _ in range(rows):
        row = [0] * cols
        count = cols if draw(st.integers(0, 9)) == 0 else draw(st.integers(0, 3))
        for j in draw(st.lists(st.integers(0, cols - 1), min_size=count, max_size=count)):
            row[j] = Fraction(draw(st.sampled_from([1, -1, 2, 5])), d)
        out.append(row)
    return RationalMatrix(out)


@st.composite
def dense(draw):
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    d = draw(st.sampled_from([1, 2, 1437]))
    values = st.integers(-600, 600)
    return RationalMatrix(
        [[Fraction(draw(values), d) for _ in range(cols)] for _ in range(rows)]
    )


@st.composite
def huge(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    values = st.one_of(st.just(0), st.integers(BIG, 2**80), st.integers(-(2**80), -BIG))
    d = draw(st.sampled_from([1, 3]))
    return RationalMatrix([[Fraction(draw(values), d) for _ in range(cols)] for _ in range(rows)])


matrices = st.one_of(
    st.builds(RationalMatrix.zeros, st.integers(0, 5), st.integers(0, 40)),
    monomials(),
    sparse(),
    dense(),
    huge(),
)


def _square(m: RationalMatrix) -> bool:
    return m.rows == m.cols


def _form(m):
    return SignatureForm(m + m.transpose()) if _square(m) else SignatureForm(RationalMatrix.zeros(0, 0))


def _subspace(m):
    if _square(m) and m.rows and m != RationalMatrix.zeros(m.rows, m.rows):
        return MatrixSubspace(m.rows, [m])
    return MatrixSubspace(0)


def _module(m):
    return CliffordModule(CliffordSignature(1, 0), m.rows, SignatureForm.standard(m.rows, 0), (m, m))


def _algebra(m):
    if not _square(m):
        return NilpotentAlgebra2(0, 0, ())
    c = m - m.transpose()
    return NilpotentAlgebra2(m.rows, 2, (c, -c), form_V=_form(m), form_Z=SignatureForm.standard(1, 1))


holders = st.sampled_from([lambda m: m, _form, _subspace, _module, _algebra])
wrappers = st.sampled_from(
    [
        lambda x: {"k": x},
        lambda x: [x],
        lambda x: (x, 1),
        lambda x: {"a": [x, "s"], "b": None, "c": Fraction(1, 2)},
    ]
)


@st.composite
def reports(draw):
    x = draw(holders)(draw(matrices))
    for _ in range(draw(st.integers(0, 3))):
        x = draw(wrappers)(x)
    return x


@PROPS
@given(matrices)
def test_a_bare_matrix_matches_json_dumps(m):
    _check(m)


@PROPS
@given(reports())
def test_matrices_in_reports_match_json_dumps(report):
    _check(report)


@PROPS
@given(st.lists(matrices, min_size=2, max_size=4))
def test_matrices_sharing_the_row_memo_match_json_dumps(ms):
    _check({"ms": ms, "again": [ms[::-1]], "forms": [_form(m) for m in ms]})


def test_every_kind_of_row_in_one_matrix():
    rows = [[0] * 64 for _ in range(6)]
    rows[1][5] = -1  # one nonzero
    rows[2][0], rows[2][63] = 2, Fraction(-1, 3)  # two, at both ends
    rows[3][10:13] = [1, 2, 3]  # three
    rows[4] = list(range(64))  # dense
    rows[5][63] = 7
    m = RationalMatrix(rows)
    _check(m)
    _check({"m": [m, -m], "z": RationalMatrix.zeros(6, 64)})
    big = m.scale(2**70)  # Python-int numerators, the same rows
    _check([big, m])


def test_opposite_signed_permutations_in_a_row():
    # 10 x 10, past the size below which a matrix is joined row by row
    order = [2, 0, 3, 1, 5, 4, 9, 6, 8, 7]
    p = _signed_permutation(order, [1, -1, 1, 1, -1, 1, 1, 1, -1, -1])
    for m in (p, -p, p.scale(Fraction(1, 2)), -p):
        _check(m)
        _check({"gens": [m], "module": _module(m)})
    _check([p, -p, p, -p, p.scale(2**70), p.scale(-(2**70))])


def test_empty_shapes():
    for m in (RationalMatrix([]), RationalMatrix([[], []]), RationalMatrix.zeros(3, 0)):
        _check(m)
        _check({"m": [[m]], "s": _subspace(m), "a": _algebra(m)})
