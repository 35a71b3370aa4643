"""Exact linear algebra: oracle-backed signature tests, elimination
routines, serialization round-trips, and the sparse span builder.

The signature oracle is independent of the library: it computes the
characteristic polynomial by a Leibniz permutation sum over Fraction
polynomials and counts positive/negative eigenvalues with a Sturm chain.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from nilforge import exactlin
from nilforge.errors import (
    BadInputError,
    DependentBasisError,
    DimensionMismatchError,
    SingularMatrixError,
)
from nilforge.exactlin import (
    MatrixSubspace,
    RationalMatrix,
    SignatureForm,
    SpanBuilder,
    _int_form,
    char_poly,
    commutator,
    eta,
    inverse,
    kernel_basis,
    rank,
    rat,
    rat_to_str,
    rational_roots,
    rref,
    signature,
    solve,
    trace_gram,
)

from helpers import kron, matrix_to_sparse, permute

# ---------------------------------------------------------------------------
# oracle: Sturm-sequence eigenvalue signs, built from scratch


def _poly_add(a, b):
    n = max(len(a), len(b))
    a = [Fraction(0)] * (n - len(a)) + list(a)
    b = [Fraction(0)] * (n - len(b)) + list(b)
    return [x + y for x, y in zip(a, b)]


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_trim(a):
    i = 0
    while i < len(a) - 1 and a[i] == 0:
        i += 1
    return a[i:]


def _poly_rem(a, b):
    """Remainder of a / b, coefficients descending."""
    a = _poly_trim(list(a))
    b = _poly_trim(list(b))
    while len(a) >= len(b) and any(x != 0 for x in a):
        coef = a[0] / b[0]
        shift = len(a) - len(b)
        sub = [coef * x for x in b] + [Fraction(0)] * shift
        a = _poly_trim([x - y for x, y in zip(a, sub)])
        if all(x == 0 for x in a):
            return [Fraction(0)]
    return a


def _poly_eval(a, x):
    acc = Fraction(0)
    for c in a:
        acc = acc * x + c
    return acc


def _oracle_char_poly(m):
    """det(tI - M) via the Leibniz permutation sum over polynomials."""
    n = m.rows
    total = [Fraction(0)]
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if not seen[i]:
                j, length = i, 0
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    length += 1
                if length % 2 == 0:
                    sign = -sign
        term = [Fraction(sign)]
        for i in range(n):
            entry = m.entry(i, perm[i])
            if perm[i] == i:
                term = _poly_mul(term, [Fraction(1), -entry])
            else:
                term = _poly_mul(term, [-entry])
        total = _poly_add(total, term)
    return _poly_trim(total)


def _sign_changes(chain, x=None, at="value"):
    signs = []
    for p in chain:
        if at == "value":
            v = _poly_eval(p, x)
            s = (v > 0) - (v < 0)
        elif at == "+inf":
            s = (p[0] > 0) - (p[0] < 0)
        else:  # -inf
            lead = p[0] * (-1) ** (len(p) - 1)
            s = (lead > 0) - (lead < 0)
        if s:
            signs.append(s)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _det(rows):
    """Determinant by Fraction Gaussian elimination with row swaps."""
    a = [list(r) for r in rows]
    det = Fraction(1)
    for k in range(len(a)):
        piv = next((i for i in range(k, len(a)) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def _interpolated_char_poly(m):
    """det(tI - M) from its values at t = 0, ..., n by Newton's divided
    differences: n + 1 determinants, for sizes the Leibniz sum cannot reach."""
    n = m.rows
    a = [[m.entry(i, j) for j in range(n)] for i in range(n)]
    coef = [
        _det([[(t if i == j else 0) - a[i][j] for j in range(n)] for i in range(n)])
        for t in range(n + 1)
    ]
    for level in range(1, n + 1):  # nodes 0, ..., n are one apart
        for i in range(n, level - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / level
    poly, newton = [Fraction(0)], [Fraction(1)]  # newton = prod_{i < k} (t - i)
    for k, c in enumerate(coef):
        poly = _poly_add(poly, [c * x for x in newton])
        newton = _poly_mul(newton, [Fraction(1), Fraction(-k)])
    return _poly_trim(poly)


def oracle_signature(m, char_poly=_oracle_char_poly):
    """(p, q, nullity) of a symmetric rational matrix via Sturm counting."""
    assert m.is_symmetric()
    cp = char_poly(m)
    nullity = 0
    while cp[-1] == 0 and len(cp) > 1:
        nullity += 1
        cp = cp[:-1]
    # Sturm chain of the zero-root-free part
    deriv = [c * (len(cp) - 1 - i) for i, c in enumerate(cp[:-1])]
    chain = [cp]
    if deriv:
        chain.append(_poly_trim(deriv))
        while len(chain[-1]) > 1:
            r = _poly_rem(chain[-2], chain[-1])
            if all(x == 0 for x in r):
                break
            chain.append([-x for x in r])
    zero = Fraction(0)
    pos = _sign_changes(chain, zero) - _sign_changes(chain, at="+inf")
    neg = _sign_changes(chain, at="-inf") - _sign_changes(chain, zero)
    return pos, neg, nullity


def _random_symmetric(rng, n, denom=3):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Fraction(rng.randint(-4, 4), rng.randint(1, denom))
            rows[i][j] = v
            rows[j][i] = v
    return RationalMatrix(rows)


def _random_invertible(rng, n):
    while True:
        m = RationalMatrix(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        )
        if rank(m) == n:
            return m


# ---------------------------------------------------------------------------
# signature against the oracle, and Sylvester invariance


def test_signature_matches_sturm_oracle():
    rng = random.Random(20260824)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = _random_symmetric(rng, n)
        assert signature(m) == oracle_signature(m)


def test_signature_known_values():
    assert signature(eta(2, 3)) == (2, 3, 0)
    assert signature(RationalMatrix.zeros(3, 3)) == (0, 0, 3)
    # hyperbolic plane: zero diagonal, needs the off-diagonal pivot step
    h = RationalMatrix(((0, 1), (1, 0)))
    assert signature(h) == (1, 1, 0)
    assert oracle_signature(h) == (1, 1, 0)


def test_sylvester_invariance_100_congruences():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 4)
        a = _random_symmetric(rng, n)
        s = _random_invertible(rng, n)
        congruent = s.transpose() * a * s
        assert signature(congruent) == signature(a)


# ---------------------------------------------------------------------------
# elimination routines


def test_rref_rank_kernel():
    m = RationalMatrix(((1, 2, 3), (2, 4, 6), (1, 0, 1)))
    r, pivots = rref(m)
    assert rank(m) == 2
    assert len(pivots) == 2
    for v in kernel_basis(m):
        assert all(x == 0 for x in m.apply(v))
    assert len(kernel_basis(m)) == 1


def test_solve_and_inverse():
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = _random_invertible(rng, n)
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        b = a.apply(x)
        assert list(solve(a, b)) == list(x)
        assert a * inverse(a) == RationalMatrix.identity(n)
    with pytest.raises(SingularMatrixError):
        inverse(RationalMatrix(((1, 2), (2, 4))))


def test_char_poly_and_rational_roots():
    m = RationalMatrix.diag([2, 2, -3])
    cp = char_poly(m)
    # (t-2)^2 (t+3) = t^3 - t^2 - 8t + 12
    assert cp == [Fraction(1), Fraction(-1), Fraction(-8), Fraction(12)]
    roots, remainder = rational_roots(cp)
    assert roots == {Fraction(2): 2, Fraction(-3): 1}
    assert remainder == 0
    # x^2 - 2 has no rational roots
    roots, remainder = rational_roots([Fraction(1), Fraction(0), Fraction(-2)])
    assert roots == {}
    assert remainder == 2


def test_char_poly_matches_oracle():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = RationalMatrix(
            [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        )
        assert list(char_poly(m)) == _oracle_char_poly(m)


# ---------------------------------------------------------------------------
# matrix algebra basics


def test_matrix_ops_and_commutator():
    a = RationalMatrix(((1, 2), (3, 4)))
    b = RationalMatrix(((0, 1), (-1, 0)))
    assert (a * b - b * a) == commutator(a, b)
    assert a.transpose().transpose() == a
    assert (a + b) - b == a
    assert a.scale(rat("1/2")).scale(2) == a
    with pytest.raises(DimensionMismatchError):
        a * RationalMatrix(((1, 2, 3),))


def test_is_ternary_matches_entrywise_check():
    rng = random.Random(5)
    cases = [
        RationalMatrix.zeros(0, 0),
        RationalMatrix(((1, -1), (0, 1))),
        RationalMatrix(((2, 0),)),
        RationalMatrix(((Fraction(1, 2), 0),)),
        RationalMatrix(((-1, 2**70),)),
    ]
    cases += [
        RationalMatrix([[Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2))) for _ in range(3)]
                        for _ in range(3)])
        for _ in range(50)
    ]
    for m in cases:
        entrywise = all(x.denominator == 1 and abs(x.numerator) <= 1 for x in m.entries())
        assert m.is_ternary() == entrywise


def test_commutator_fast_path_matches_slow_path():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 5)
        a = RationalMatrix(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        )
        b = RationalMatrix(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        )
        slow = a * b - b * a
        assert commutator(a, b) == slow
        # non-integer entries force the generic route
        af = a.scale(rat("1/3"))
        assert commutator(af, b) == af * b - b * af


def test_huge_entries_avoid_int64_overflow():
    big = 2**40
    a = RationalMatrix(((big, 0), (0, big)))
    assert a * a == RationalMatrix(((big * big, 0), (0, big * big)))
    assert commutator(a, RationalMatrix(((0, big), (0, 0)))) == RationalMatrix(
        ((0, 0), (0, 0))
    )


# ---------------------------------------------------------------------------
# serialization


def test_rational_string_round_trip():
    rng = random.Random(3)
    for _ in range(100):
        x = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        assert rat(rat_to_str(x)) == x
    assert rat_to_str(Fraction(3, 1)) == "3"
    assert rat_to_str(Fraction(-1, 2)) == "-1/2"


def test_rat_accepts_only_ascii_integers_and_ratios():
    # [+-]?[0-9]+ or [+-]?[0-9]+/[0-9]+ with a nonzero denominator
    accepted = {
        "7": 7, "-7": -7, "+7": 7, "0": 0, "-0": 0, "06/08": Fraction(3, 4), "-3/4": Fraction(-3, 4)
    }
    for text, value in accepted.items():
        assert rat(text) == value
    rejected = [
        "1_000", " 7 ", "7 ", "7\n", "1 /2", "1/ 2", "\u0663", "1/\u0663", "1/-2", "1/+2",
        "1/0", "", "/", "1/", "/2", "+", "-", "1.5", "1e3", "0x10", "1/2/3", "--1",
    ]
    for text in rejected:
        with pytest.raises(BadInputError):
            rat(text)
        with pytest.raises(BadInputError):
            RationalMatrix([[text]])


def test_rat_rejects_booleans():
    for x in (True, False):
        with pytest.raises(BadInputError):
            rat(x)
    with pytest.raises(BadInputError):
        RationalMatrix([[False, True], [-1, 0]])


def test_matrix_json_round_trip():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = _random_symmetric(rng, n)
        assert RationalMatrix.from_json(m.to_json()) == m
    f = SignatureForm(eta(1, 2))
    assert SignatureForm.from_json(f.to_json()) == f


# ---------------------------------------------------------------------------
# span builder and matrix subspaces


def test_span_builder_full_rref_coords():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 4)
        mats = [
            RationalMatrix(
                [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            )
            for _ in range(rng.randint(1, 5))
        ]
        span = SpanBuilder()
        kept = []
        for m in mats:
            if span.add(matrix_to_sparse(m)):
                kept.append(m)
        # every original matrix must be an exact combination of kept ones
        for m in mats:
            coords = span.coords(matrix_to_sparse(m))
            assert coords is not None
            rebuilt = RationalMatrix.zeros(n, n)
            for idx, c in coords.items():
                rebuilt = rebuilt + kept[idx].scale(c)
            assert rebuilt == m


def test_matrix_subspace_membership_and_coords():
    b1 = RationalMatrix(((0, 1), (-1, 0)))
    b2 = RationalMatrix(((1, 0), (0, -1)))
    s = MatrixSubspace(2, [b1, b2])
    elem = b1.scale(rat("2/3")) - b2.scale(5)
    assert s.contains(elem)
    assert list(s.coords(elem)) == [rat("2/3"), rat(-5)]
    assert not s.contains(RationalMatrix.identity(2))
    with pytest.raises(DependentBasisError):
        MatrixSubspace(2, [b1, b1.scale(2)])


def test_trace_gram_is_minus_trace():
    b1 = RationalMatrix(((0, 1), (-1, 0)))
    s = MatrixSubspace(2, [b1])
    assert trace_gram(s).entry(0, 0) == -(b1 * b1).trace() == 2


def test_standard_form_is_eta_with_its_inertia():
    for total in range(9):
        for p in range(total + 1):
            e = eta(p, total - p)
            std, ref = SignatureForm.standard(p, total - p), SignatureForm(e)
            assert (std.p, std.q, std.nullity) == (ref.p, ref.q, ref.nullity) == (p, total - p, 0)
            assert std.matrix == ref.matrix
            assert std.inverse_matrix() == inverse(e)
    assert eta(3, 2) is eta(3, 2)  # memoized


def test_kron_and_permute_match_entrywise_definitions():
    rng = random.Random(5)
    a = RationalMatrix([[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)] for _ in range(2)])
    b = RationalMatrix([[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2)] for _ in range(4)])
    k = kron(a, b)
    assert (k.rows, k.cols) == (8, 6)
    assert all(
        k.entry(4 * i + u, 2 * j + v) == a.entry(i, j) * b.entry(u, v)
        for i in range(2) for j in range(3) for u in range(4) for v in range(2)
    )
    wide = kron(RationalMatrix([[2**40, 3]]), RationalMatrix([[2**30], [-(2**25)]]))
    assert wide == RationalMatrix([[2**70, 3 * 2**30], [-(2**65), -3 * 2**25]])
    m = RationalMatrix([[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)] for _ in range(4)])
    order = [2, 0, 3, 1]
    perm = RationalMatrix([[int(k == order[i]) for i in range(4)] for k in range(4)])  # P e_i = e_order[i]
    assert permute(m, order) == perm.transpose() * m * perm
    assert all(permute(m, order).entry(i, j) == m.entry(order[i], order[j]) for i in range(4) for j in range(4))
    for bad, mat in (([0, 0, 1, 2], m), ([0, 1], a), ([0, 1, 2], m)):
        with pytest.raises(DimensionMismatchError):
            permute(mat, bad)


# ---------------------------------------------------------------------------
# signature at the sizes and in the cases the tests above do not reach


def _symmetric(rng, n, entry, zero_diagonal=False):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + zero_diagonal, n):
            rows[i][j] = rows[j][i] = entry()
    return rows


def _signature_cases(rng):
    """(name, matrix) pairs: n up to 10, D > 1, numerators past 2**62, zero
    diagonals from the start or after one diagonal pivot, and rank-deficient
    sums of +-v v^T."""

    def small():
        return Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5)))

    yield "schur-hyperbolic", RationalMatrix(((1, 1, 1), (1, 1, 2), (1, 2, 1)))
    for _ in range(12):
        n = rng.randint(6, 10)
        yield "dense", RationalMatrix(_symmetric(rng, n, small))
        yield "zero-diagonal", RationalMatrix(_symmetric(rng, n, small, zero_diagonal=True))
        big = _symmetric(rng, n, lambda: Fraction(rng.randint(-9, 9) * 2**70, 3))
        yield "huge", RationalMatrix(big)
        # [[a, a u^T], [a u, a u u^T + Z]] leaves Z, with zero diagonal, after pivot 0
        a, u = small() or Fraction(1), [Fraction(rng.randint(-3, 3)) for _ in range(n - 1)]
        z = _symmetric(rng, n - 1, small, zero_diagonal=True)
        rows = [[a] + [a * x for x in u]]
        rows += [[a * u[i]] + [a * u[i] * u[j] + z[i][j] for j in range(n - 1)] for i in range(n - 1)]
        yield "schur-zero-diagonal", RationalMatrix(rows)
        vs = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n)]
              for _ in range(rng.randint(0, n - 1))]
        signs = [rng.choice((1, -1)) for _ in vs]
        yield "low-rank", RationalMatrix(
            [[sum((s * v[i] * v[j] for s, v in zip(signs, vs)), Fraction(0)) for j in range(n)]
             for i in range(n)]
        )


def test_signature_matches_sturm_oracle_up_to_size_10():
    rng = random.Random(20261018)
    for _ in range(20):  # the interpolated char poly agrees with the Leibniz sum
        m = _random_symmetric(rng, rng.randint(0, 5))
        assert _interpolated_char_poly(m) == _oracle_char_poly(m)
    assert signature(RationalMatrix([])) == (0, 0, 0)
    kinds = Counter()
    for kind, m in _signature_cases(rng):
        expected = oracle_signature(m, char_poly=_interpolated_char_poly)
        # Sturm counts distinct roots: the cases must have no repeated nonzero eigenvalue
        assert sum(expected) == m.rows, kind
        assert signature(m) == expected, kind
        n, d = _int_form(m)
        kinds[kind, n.dtype == object, d > 1] += 1
    assert signature(RationalMatrix(((1, 1, 1), (1, 1, 2), (1, 2, 1)))) == (2, 1, 0)
    assert kinds["huge", True, True] == 12  # Python-int numerators over D = 3
    assert kinds["dense", False, True] >= 10


# ---------------------------------------------------------------------------
# the eliminations read (N, D): no Fraction on the way in


def test_eliminations_build_no_fractions_on_the_way_in(monkeypatch):
    ints = RationalMatrix(((2, 1, 0), (1, 3, 1), (0, 1, -1)))
    fracs = RationalMatrix(
        ((Fraction(1, 2), Fraction(1, 3), 0), (Fraction(1, 3), -1, Fraction(1, 4)),
         (0, Fraction(1, 4), 2))
    )
    b = (Fraction(1, 2), -3, 5)
    calls = Counter()

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    for name in ("row", "column", "apply"):
        monkeypatch.setattr(RationalMatrix, name, counted(name, getattr(RationalMatrix, name)))
    monkeypatch.setattr(exactlin, "rat", counted("rat", exactlin.rat))
    answers = []
    for m in (ints, fracs):
        calls.clear()
        inertia, r = signature(m), rank(m)
        assert not calls  # neither row, column nor rat
        answers.append((m, inertia, r, rref(m), kernel_basis(m), solve(m, b), inverse(m)))
        assert calls["row"] == calls["column"] == 0
    calls.clear()
    closure = exactlin._closure([ints, fracs], RationalMatrix([[1], [0], [0]]))
    assert calls["apply"] == 0
    monkeypatch.undo()
    closure = [closure.row(i) for i in range(closure.rows)]
    for m, inertia, r, (echelon, pivots), kernel, x, inv in answers:
        assert inertia == oracle_signature(m) and r == 3 and kernel == []
        assert echelon == RationalMatrix.identity(3) and pivots == (0, 1, 2)
        assert m.apply(x) == b and m * inv == RationalMatrix.identity(3)
    # the closure starts at v, is independent and is sent into itself
    assert closure[0] == (1, 0, 0) and rank(RationalMatrix(closure)) == len(closure)
    for u in closure:
        for a in (ints, fracs):
            assert rank(RationalMatrix(closure + [a.apply(u)])) == len(closure)


def test_rank_of_stacked_matrices_with_different_denominators():
    a = RationalMatrix(((1, 2, 3), (0, 1, 1)))
    b = RationalMatrix(((Fraction(1, 2), Fraction(3, 2), 2), (Fraction(1, 3), Fraction(2, 3), 1)))
    c = RationalMatrix(((0, 0, Fraction(1, 5)),))
    for ms, expected in (((a, b), 2), ((b, a), 2), ((a, c), 3), ((b, b, c), 3), ((a,), 2)):
        stacked = RationalMatrix([m.row(i) for m in ms for i in range(m.rows)])
        assert rank(*ms) == rank(stacked) == expected
    assert rank() == 0 and rank(RationalMatrix([]), c) == 1
    with pytest.raises(DimensionMismatchError):
        rank(a, RationalMatrix(((1, 2),)))


def test_text_and_dicts_are_not_rows():
    # a string or dict is iterable, by characters or keys, but is no row
    for rows in ("12", b"12", {"1": 0}, ["12", "34"], [[1, 2], "34"], [{"1": 0, "2": 0}]):
        with pytest.raises(BadInputError):
            RationalMatrix(rows)
    for values in ("11", b"\x01\x01", {"1": 0}):
        with pytest.raises(BadInputError):
            RationalMatrix.diag(values)
    with pytest.raises(BadInputError):
        RationalMatrix.from_json({"entries": ["12", "34"]})
    assert RationalMatrix.diag((1, 2)) == RationalMatrix([[1, 0], (0, 2)])
