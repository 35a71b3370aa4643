"""The mod-p Krylov certificate of full closures and the ideal probe on it.

``exactlin.closure_is_full`` answers True only with a proof that the closure
of a start vector is the whole space; the probe takes that answer in place of
an exact closure.  The properties below check the proof against the exact
``_closure`` on random, block-triangular, huge and degenerate map sets, and
the probe against a copy of the per-trial exact probe it replaces.
"""

import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilforge import exactlin, triple
from nilforge.clifford import CliffordSignature, build_module
from nilforge.exactlin import MatrixSubspace, RationalMatrix, _closure, closure_is_full
from nilforge.standardform import so_basis

PROPS = settings(max_examples=80, deadline=None, derandomize=True)

P = exactlin._KRYLOV_PRIME

# small entries, multiples of P (zero mod P, nonzero over Q) and numerators
# of at least 2**62, which the matrices hold as Python ints
ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([P, -P, 2 * P + 1, 2**62, -(2**62) - 7, 2**70 + 3, 5 * P * 2**60]),
)
DENOMINATORS = st.sampled_from([1, 2, 3, P, 2**63 + 1])


def _column(u):
    return RationalMatrix([(x,) for x in u])


def _columns(us):
    return [_column(us.column(j)) for j in range(us.cols)]


@st.composite
def map_sets(draw, dim, invariant=None):
    """Up to three dim x dim maps over a shared denominator, zero below the
    first ``invariant`` rows of the first ``invariant`` columns when given, so
    that the span of those coordinates is invariant."""
    maps = []
    for _ in range(draw(st.integers(0, 3))):
        den = draw(DENOMINATORS)
        entries = [[draw(ENTRIES) for _ in range(dim)] for _ in range(dim)]
        if invariant is not None:
            for i in range(invariant, dim):
                entries[i][:invariant] = [0] * invariant
        maps.append(RationalMatrix([[Fraction(x, den) for x in row] for row in entries]))
    return maps


@st.composite
def start_vectors(draw, dim, support=None):
    """One to four start vectors, the columns of a dim-row matrix, nonzero
    only in the first ``support`` coordinates when given."""
    cols = draw(st.integers(1, 4))
    den = draw(DENOMINATORS)
    rows = [
        [Fraction(draw(ENTRIES), den) if support is None or i < support else 0 for _ in range(cols)]
        for i in range(dim)
    ]
    return RationalMatrix(rows)


@st.composite
def random_cases(draw):
    dim = draw(st.integers(1, 6))
    return draw(map_sets(dim)), draw(start_vectors(dim))


@st.composite
def triangular_cases(draw):
    dim = draw(st.integers(2, 6))
    block = draw(st.integers(1, dim - 1))
    return draw(map_sets(dim, block)), draw(start_vectors(dim, block))


@PROPS
@given(random_cases())
def test_a_certified_closure_is_full(case):
    maps, us = case
    full = closure_is_full(maps, us)
    assert len(full) == us.cols
    for certified, u in zip(full, _columns(us)):
        if certified:
            assert _closure(maps, u).rows == us.rows


@PROPS
@given(triangular_cases())
def test_a_vector_in_an_invariant_block_is_never_certified(case):
    maps, us = case
    assert closure_is_full(maps, us) == [False] * us.cols
    assert all(_closure(maps, u).rows < us.rows for u in _columns(us))


def test_degenerate_map_sets():
    # no maps, or zero maps: the closure of u is its line
    for maps in ([], [RationalMatrix.zeros(1, 1)] * 2):
        assert closure_is_full(maps, RationalMatrix([[1, -3, P, 0]])) == [True, True, False, False]
    assert closure_is_full([], RationalMatrix([[1], [2]])) == [False]
    assert closure_is_full([RationalMatrix.zeros(3, 3)], RationalMatrix([[1], [1], [1]])) == [False]
    # a cyclic shift spins e_1 up to everything, and its sum vector only to a line
    shift = RationalMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert closure_is_full([shift], RationalMatrix([[1, 1], [0, 1], [0, 1]])) == [True, False]
    assert closure_is_full([shift], RationalMatrix.zeros(0, 0)) == []


def test_object_numerators_are_reduced():
    # the shift scaled by a huge numerator and a huge denominator
    huge = 2**64 * P + 1
    shift = RationalMatrix([[0, 0, huge], [huge, 0, 0], [0, huge, 0]]).scale(Fraction(1, 2**65 + 1))
    u = RationalMatrix([[huge], [0], [0]])
    assert shift._n.dtype == object and u._n.dtype == object
    assert closure_is_full([shift], u) == [True]
    assert _closure([shift], u).rows == 3


# ---------------------------------------------------------------------------
# the probe on the certificate


def ref_probe(ads, seed, trials=8):
    """The probe as it was before the certificate: one exact closure per
    trial, drawn and tested in turn."""
    dim = len(ads)
    rng = random.Random(seed)
    for trial in range(trials):
        coeffs = [rng.randint(-3, 3) for _ in range(dim)]
        if all(c == 0 for c in coeffs):
            coeffs[rng.randrange(dim)] = 1
        ideal_dim = _closure(ads, RationalMatrix([(c,) for c in coeffs])).rows
        if 0 < ideal_dim < dim:
            return {"trial": trial, "coefficients": coeffs, "ideal_dim": ideal_dim}
    return None


def _ads(r, s):
    report, ads = triple._clifford_generated(build_module(CliffordSignature(r, s)))
    assert report.is_triple
    return ads


def _heisenberg_ads():
    e12, e13, e23 = (
        RationalMatrix([[int((i, j) == pos) for j in range(3)] for i in range(3)])
        for pos in ((0, 1), (0, 2), (1, 2))
    )
    return triple._ad_matrices(MatrixSubspace(3, [e12, e13, e23]))


def _abelian_ads():
    basis = so_basis(4, 0).basis
    return triple._ad_matrices(MatrixSubspace(4, [basis[0], basis[5]]))


@pytest.fixture
def closures(monkeypatch):
    calls = []
    exact = triple._closure
    monkeypatch.setattr(triple, "_closure", lambda maps, u: calls.append(u) or exact(maps, u))
    return calls


SMALL = [(r, total - r) for total in range(1, 6) for r in range(total + 1)]


@pytest.mark.parametrize("r, s", SMALL, ids=[f"{r},{s}" for r, s in SMALL])
def test_the_probe_runs_no_exact_closure_on_clifford_signatures(closures, r, s):
    module = build_module(CliffordSignature(r, s))
    for seed in range(5):
        assert triple.clifford_ideal_probe(module, seed) is None
    assert closures == []


LARGE = [(r, total - r) for total in (5, 6) for r in range(total + 1)]


@pytest.mark.parametrize("r, s", LARGE, ids=[f"{r},{s}" for r, s in LARGE])
def test_the_probe_matches_the_exact_probe(r, s):
    ads = _ads(r, s)
    for seed in range(3):
        assert triple._probe(ads, seed) == ref_probe(ads, seed)


@pytest.mark.parametrize("trials", [0, 1, 20])
def test_trial_counts(closures, trials):
    for ads, open_trials in ((_ads(2, 1), 0), (_heisenberg_ads(), 1), (_abelian_ads(), 1)):
        closures.clear()
        for seed in range(3):
            assert triple._probe(ads, seed, trials) == ref_probe(ads, seed, trials)
        # every trial of a nilpotent or abelian L is left open, and the first is a witness
        assert len(closures) == 3 * open_trials * min(trials, 1)


def test_dims_above_the_cap_take_the_exact_closures(closures, monkeypatch):
    ads = _ads(3, 0)
    monkeypatch.setattr(exactlin, "_KRYLOV_DIM_CAP", len(ads) - 1)
    assert closure_is_full(ads, RationalMatrix([[1]] * len(ads))) == [False]
    assert triple._probe(ads, 4, trials=5) == ref_probe(ads, 4, trials=5) is None
    assert len(closures) == 5
    monkeypatch.setattr(exactlin, "_KRYLOV_DIM_CAP", len(ads))
    closures.clear()
    assert triple._probe(ads, 4, trials=5) is None and closures == []


def test_the_modulus_is_a_prime_that_keeps_products_in_int64():
    p, cap = exactlin._KRYLOV_PRIME, exactlin._KRYLOV_DIM_CAP
    assert p > 2 and all(p % k for k in range(2, isqrt(p) + 1))
    assert cap * (p - 1) ** 2 < 2**63
