"""Fractions only at the edges of exactlin.

``RationalMatrix`` reads ints, Fractions and "a/b" literals as reduced
(n, d) pairs straight into (N, D); ``rref`` and ``inverse`` build their
answers from the elimination's integer relations; each matrix computes its
bound max |N| once; ``eta_conjugate`` is a sign flip of the transpose.  Each
is checked against a Fraction reference, and counting tests keep the
Fractions at the edges: entries, coordinates and printed text."""

from collections import Counter
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilforge import cli, exactlin, triple
from nilforge.clifford import CliffordSignature, build_module
from nilforge.errors import (
    BadInputError,
    DimensionMismatchError,
    DimError,
    SingularMatrixError,
)
from nilforge.exactlin import (
    _INT64_BOUND,
    RationalMatrix,
    _int_form,
    _nmax,
    block_diag,
    commutator,
    eta,
    eta_conjugate,
    inverse,
    lin_comb,
    rat,
    rref,
    trace_pairing,
)

from helpers import kron, permute

PROPS = settings(max_examples=60, deadline=None, derandomize=True)

NUMERATORS = st.one_of(
    st.integers(-9, 9),
    st.integers(2**62 - 2, 2**62 + 2),  # either side of the int64 bound
    st.integers(-(2**70), 2**70),
)
VALUES = st.builds(Fraction, NUMERATORS, st.sampled_from([1, 1, 1, 2, 3, 4, 6]))


@st.composite
def spelled(draw, x: Fraction):
    """x as a Fraction, a literal (possibly unreduced, as "2/4") or an int."""
    k = draw(st.integers(1, 3))
    forms = [x, f"{x.numerator * k}/{x.denominator * k}", f"{x.numerator}/{x.denominator}"]
    if x.denominator == 1:
        forms += [x.numerator, str(x.numerator), f"+{x.numerator}" if x >= 0 else str(x)]
    return draw(st.sampled_from(forms))


@st.composite
def grids(draw, rows=st.integers(0, 4), cols=st.integers(0, 4)):
    """(Fraction rows, the same rows spelled as ints, Fractions and literals)."""
    r, c = draw(rows), draw(cols)
    fracs = [[draw(VALUES) for _ in range(c)] for _ in range(r)]
    return fracs, [[draw(spelled(x)) for x in row] for row in fracs]


def _reference_form(fracs):
    """(N as lists, D) of Fraction rows: D the lcm of the denominators."""
    d = lcm(*(x.denominator for row in fracs for x in row))
    return [[int(x * d) for x in row] for row in fracs], d


def _exact_bound(m: RationalMatrix) -> int:
    n, _ = _int_form(m)
    return max((abs(int(x)) for x in n.flat), default=0)


def _check_bound(m: RationalMatrix) -> RationalMatrix:
    """A bound stored when m was made is exact, and the one read later too."""
    assert m._max is None or m._max == _exact_bound(m)
    assert _nmax(m) == _exact_bound(m)
    assert m.is_ternary() == (m.is_integer() and _exact_bound(m) <= 1)
    return m


# ---------------------------------------------------------------------------
# intake: (n, d) pairs straight into (N, D)


@PROPS
@given(grids())
def test_intake_matches_the_fraction_reference(grid):
    fracs, spelt = grid
    want_n, want_d = _reference_form(fracs)
    wide = max((abs(x) for row in want_n for x in row), default=0) >= _INT64_BOUND
    for m in (RationalMatrix(spelt), RationalMatrix(fracs)):
        n, d = _int_form(m)
        assert (m.rows, m.cols) == ((len(fracs), len(fracs[0])) if fracs else (0, 0))
        assert d == want_d and n.tolist() == want_n
        assert n.dtype == (object if wide else np.int64)
        _check_bound(m)
    assert RationalMatrix(spelt) == RationalMatrix(fracs)
    if fracs:
        diag = RationalMatrix.diag(spelt[0])
        assert diag == RationalMatrix.diag(fracs[0]) == RationalMatrix(
            [[x if i == j else 0 for j, x in enumerate(fracs[0])] for i in range(len(fracs[0]))]
        )
        _check_bound(diag)


def test_intake_reduces_literals():
    m = RationalMatrix([["2/4", "-6/8"], ["0/5", "+3"]])
    n, d = _int_form(m)
    assert d == 4 and n.tolist() == [[2, -3], [0, 12]]
    assert m == RationalMatrix([[Fraction(1, 2), Fraction(-3, 4)], [0, 3]])
    assert rat("10/4") == Fraction(5, 2)
    assert type(rat("7")) is Fraction


# bool, float, nested list, other types, zero denominators, bad literals and
# digits past int()'s 4300-digit limit
REJECTED = [True, False, 1.5, [1], None, b"1", "1/0", "0/000", "1 ", "1_0", "٧", "1/-2"]
REJECTED += ["1" * 4400, "1/" + "1" * 4400]


@pytest.mark.parametrize("bad", REJECTED, ids=lambda x: repr(x)[:12])
def test_every_intake_rejects_with_one_error_class(bad):
    builds = (
        rat,
        lambda x: RationalMatrix([[1, x]]),
        lambda x: RationalMatrix.diag([x, 1]),
        lambda x: lin_comb([1, x], [eta(1, 0), eta(0, 1)], 1),
        lambda x: eta(1, 1).scale(x),
        lambda x: exactlin.solve(eta(2, 0), [1, x]),
    )
    for build in builds:
        with pytest.raises(BadInputError):
            build(bad)


# ---------------------------------------------------------------------------
# the bound, once per matrix


@PROPS
@given(
    grids(rows=st.just(3), cols=st.just(3)),
    grids(rows=st.just(3), cols=st.just(3)),
    VALUES,
    st.permutations(range(3)),
    st.integers(0, 3),
)
def test_the_cached_bound_is_exact_after_every_operation(ga, gb, c, order, p):
    a, b = RationalMatrix(ga[1]), RationalMatrix(gb[1])
    results = [
        a + b,
        a - b,
        -a,
        a.scale(c),
        a * b,
        commutator(a, b),
        kron(a, b),
        a.transpose(),
        permute(a, list(order)),
        eta_conjugate(a, p, 3 - p),
        rref(a)[0],
        block_diag(a, b),
        lin_comb([c, 1], [a, b], 3),
        trace_pairing([a, b], [b]),
        RationalMatrix.from_json(a.to_json()),
        RationalMatrix.diag(list(a.row(0))),
    ]
    if exactlin.rank(a) == 3:
        results.append(inverse(a))
    for m in results:
        _check_bound(m)
    # operands whose bound is known: every product still reads it exactly
    _check_bound(results[4] * results[5])
    _check_bound(_check_bound(results[0]) - results[0].transpose())


# ---------------------------------------------------------------------------
# answers of the elimination from integer relations


def _reference_rref(rows, cols):
    """Gauss-Jordan over Fractions: (echelon rows padded with zero rows, pivots)."""
    rows, pivots = [list(map(Fraction, r)) for r in rows], []
    for c in range(cols):
        k = next((i for i in range(len(pivots), len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        top = len(pivots)
        rows[top], rows[k] = rows[k], rows[top]
        rows[top] = [x / rows[top][c] for x in rows[top]]
        for i, r in enumerate(rows):
            if i != top and r[c]:
                rows[i] = [x - r[c] * y for x, y in zip(r, rows[top])]
        pivots.append(c)
    return rows, tuple(pivots)


@PROPS
@given(grids())
def test_rref_matches_the_fraction_reference(grid):
    fracs, spelt = grid
    m = RationalMatrix(spelt)
    echelon, pivots = _reference_rref(fracs, m.cols)
    got, got_pivots = rref(m)
    assert got_pivots == pivots
    assert got == RationalMatrix(echelon) and (got.rows, got.cols) == (m.rows, m.cols)
    _check_bound(got)


@PROPS
@given(st.integers(0, 4).flatmap(lambda k: grids(rows=st.just(k), cols=st.just(k))))
def test_inverse_matches_the_fraction_reference(grid):
    fracs, spelt = grid
    m, n = RationalMatrix(spelt), len(fracs)
    augmented = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(fracs)]
    echelon, pivots = _reference_rref(augmented, 2 * n)
    if pivots[:n] != tuple(range(n)):  # the left block does not reduce to I
        with pytest.raises(SingularMatrixError):
            inverse(m)
        return
    got = inverse(m)
    assert got == RationalMatrix([row[n:] for row in echelon])
    assert m * got == RationalMatrix.identity(n)
    _check_bound(got)


def test_inverse_of_nearly_singular_and_wide_matrices():
    huge = 2**63 + 1
    m = RationalMatrix([[huge, 1], [huge - 1, 1]])
    assert inverse(m) == RationalMatrix([[1, -1], [1 - huge, huge]])
    assert _int_form(inverse(m))[0].dtype == object
    half = RationalMatrix([[Fraction(1, 2), 0], [0, Fraction(-1, 3)]])
    assert inverse(half) == RationalMatrix([[2, 0], [0, -3]])
    assert inverse(RationalMatrix([])) == RationalMatrix([])


# ---------------------------------------------------------------------------
# A^eta as a sign flip


@PROPS
@given(st.integers(0, 4).flatmap(lambda k: st.tuples(
    grids(rows=st.just(k), cols=st.just(k)), st.integers(0, k)
)))
def test_eta_conjugate_is_the_product_eta_a_transpose_eta(case):
    (fracs, spelt), p = case
    a, k = RationalMatrix(spelt), len(fracs)
    e = eta(p, k - p)
    got = eta_conjugate(a, p, k - p)
    assert got == e * a.transpose() * e
    _check_bound(got)
    assert eta_conjugate(got, p, k - p) == a


def test_eta_conjugate_rejects_sizes_as_the_products_did():
    a = RationalMatrix([[1, 2], [3, 4]])
    for p, q in ((1, 0), (2, 1), (0, 3)):
        with pytest.raises(DimensionMismatchError):
            eta_conjugate(a, p, q)
    with pytest.raises(DimensionMismatchError):
        eta_conjugate(RationalMatrix([[1, 2, 3], [4, 5, 6]]), 1, 1)
    with pytest.raises(DimError):
        eta_conjugate(a, -1, 3)


# ---------------------------------------------------------------------------
# counting: Fractions, rat and bounds stay where they belong


@pytest.fixture
def counts(monkeypatch):
    """Counts of Fraction constructions, rat calls, RationalMatrix(rows)
    constructions and bound evaluations, while the test runs."""
    seen = Counter()

    def counted(name, f):
        def wrapper(*args, **kwargs):
            seen[name] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Fraction, "__new__", counted("Fraction", Fraction.__new__))
    monkeypatch.setattr(exactlin, "rat", counted("rat", exactlin.rat))
    monkeypatch.setattr(exactlin, "_bound", counted("bound", exactlin._bound))
    monkeypatch.setattr(RationalMatrix, "__init__", counted("init", RationalMatrix.__init__))
    return seen


def test_loading_an_algebra_builds_no_fraction(tmp_path, counts):
    c = [["0", "1/2", "-2/3"], ["-1/2", "0", "4/6"], ["2/3", "-2/3", "0"]]
    form = {"rows": 3, "cols": 3, "entries": [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1"]]}
    text = {"m": 3, "n": 1, "C": [c], "form_V": form, "form_Z": None, "tag": "adapted"}
    path = tmp_path / "algebra.json"
    path.write_text(cli.canonical_json(text), encoding="utf-8")
    counts.clear()
    a = cli.load_algebra(str(path))
    assert counts["Fraction"] == 0
    assert a.structure[0].entry(0, 1) == Fraction(1, 2)


def test_eliminations_and_the_ad_table_answer_in_integers(counts):
    l = triple.clifford_triple_report(build_module(CliffordSignature(2, 1))).L_basis
    m = RationalMatrix([[Fraction(1, 2), 2, Fraction(-1, 3)], [1, 0, 5], [Fraction(3, 4), 1, 1]])
    counts.clear()
    echelon, _ = rref(m)
    inv = inverse(m)
    ads = triple._ad_matrices(l)
    assert counts["Fraction"] == counts["rat"] == counts["init"] == 0
    assert echelon == RationalMatrix.identity(3) and m * inv == RationalMatrix.identity(3)
    assert len(ads) == l.dim == 6


def test_repeated_products_read_each_bound_once(counts):
    # products: their bounds are not known until first read
    a = eta(2, 0) * RationalMatrix([[1, 2], [3, 4]])
    b = eta(1, 1) * RationalMatrix([[Fraction(1, 2), 1], [0, 5]])
    assert a._max is None and b._max is None
    counts.clear()
    for _ in range(5):
        a * b, b * a, commutator(a, b), a + b, a - b, lin_comb([2, "1/3"], [a, b], 2)
    assert counts["bound"] == 2


def test_the_triple_verbs_at_five_build_few_fractions(capsys, counts):
    triple._clifford_generated.cache_clear()
    counts.clear()
    for r in range(6):
        assert cli.main(["triple", str(r), str(5 - r)]) in (0, 1)
    capsys.readouterr()
    assert counts["Fraction"] <= 1000
