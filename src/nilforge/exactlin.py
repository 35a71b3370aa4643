"""Exact rational dense linear algebra.

Everything is computed over ``fractions.Fraction``; there is no floating
point anywhere.  Each matrix caches an integer form M = N / D (numerator
rows N, least common denominator D), and every product or commutator whose
numerators pass an explicit overflow bound is one numpy int64 product of
the N's, divided exactly by D_a D_b; the result is identical to the pure
Fraction path, which remains the fallback.

``SpanBuilder``, an incremental reduced echelon span of matrices, coordinate
sequences or sparse dicts, is the one Gaussian elimination: rref and rank
read the span of a matrix's rows, kernel_basis and solve the coordinates of
its columns, inverse the coordinates of e_j over its rows, and
``MatrixSubspace`` keeps the span of its basis.  ``signature`` alone reduces
by symmetric congruence.

The module provides:

- ``RationalMatrix``: immutable dense matrix over the rationals,
- rank / kernel / solve / inverse / characteristic polynomial,
- ``signature``: Sylvester inertia by exact symmetric congruence
  diagonalization (with hyperbolic 2x2 handling of zero diagonal pivots),
- ``SignatureForm``: a symmetric matrix together with its inertia,
- ``MatrixSubspace``: a subspace of m x m matrices given by an independent
  basis, with exact membership and coordinate computations,
- ``trace_pairing`` / ``trace_gram``: all traces tr(X_a Y_b) as one product,
  and the Gram matrix of the trace form <X, Y> = -tr(XY),
- canonical string/JSON serialization with bit-exact round-trip.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .errors import (
    BadInputError,
    DependentBasisError,
    DimensionMismatchError,
    NotSymmetricError,
    SingularMatrixError,
)

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

# ---------------------------------------------------------------------------
# rationals


_FCACHE = tuple(Fraction(i) for i in range(-256, 257))


def _frac_of_int(i: int) -> Fraction:
    return _FCACHE[i + 256] if -256 <= i <= 256 else Fraction(i)


def rat(x) -> Fraction:
    """Coerce an int, Fraction or canonical "a/b" string to a Fraction."""
    t = type(x)
    if t is Fraction:
        return x
    if t is int:
        return _frac_of_int(x)
    if t is str:
        return rat_from_str(x)
    if t is bool:
        raise BadInputError(f"boolean {x!r} is not a rational")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return _frac_of_int(x)
    raise BadInputError(f"cannot interpret {x!r} as a rational")


def rat_to_str(x: Fraction) -> str:
    """Canonical form "a/b", or "a" when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rat_from_str(s: str) -> Fraction:
    try:
        if "/" in s:
            num, den = s.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise BadInputError(f"bad rational literal {s!r}") from exc


# ---------------------------------------------------------------------------
# matrices


def _as_row(xs) -> tuple[Fraction, ...]:
    return tuple(rat(x) for x in xs)


class RationalMatrix:
    """Immutable dense matrix over the rationals."""

    __slots__ = ("rows", "cols", "_r", "_hash", "_int")

    def __init__(self, rows):
        self._r = tuple(_as_row(r) for r in rows)
        self.rows = len(self._r)
        self.cols = len(self._r[0]) if self._r else 0
        if any(len(r) != self.cols for r in self._r):
            raise DimensionMismatchError("ragged rows")
        self._hash = None
        self._int = None

    @classmethod
    def _raw(cls, frac_rows) -> "RationalMatrix":
        """Internal fast constructor from pre-validated Fraction row tuples."""
        m = object.__new__(cls)
        m._r = frac_rows
        m.rows = len(frac_rows)
        m.cols = len(frac_rows[0]) if frac_rows else 0
        m._hash = None
        m._int = None
        return m

    # -- constructors

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls([[ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def diag(cls, values) -> "RationalMatrix":
        vals = [rat(v) for v in values]
        n = len(vals)
        return cls([[vals[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    # -- access

    def entry(self, i: int, j: int) -> Fraction:
        return self._r[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._r[i]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r[j] for r in self._r)

    def entries(self):
        """Iterate over all entries row-major."""
        for r in self._r:
            yield from r

    # -- structure predicates

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square() and all(
            self._r[i][j] == self._r[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def is_antisymmetric(self) -> bool:
        return self.is_square() and all(
            self._r[i][j] == -self._r[j][i]
            for i in range(self.rows)
            for j in range(i, self.cols)
        )

    def is_integer(self) -> bool:
        return all(x.denominator == 1 for x in self.entries())

    # -- arithmetic

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_same_shape(other)
        return RationalMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self._r, other._r)]
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_same_shape(other)
        return RationalMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self._r, other._r)]
        )

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix([[-a for a in r] for r in self._r])

    def scale(self, c) -> "RationalMatrix":
        c = rat(c)
        return RationalMatrix([[c * a for a in r] for r in self._r])

    def __mul__(self, other):
        if isinstance(other, RationalMatrix):
            return _matmul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def apply(self, vec) -> tuple[Fraction, ...]:
        """Matrix-vector product."""
        v = tuple(rat(x) for x in vec)
        if len(v) != self.cols:
            raise DimensionMismatchError(f"vector length {len(v)} != cols {self.cols}")
        return tuple(sum((a * x for a, x in zip(r, v)), ZERO) for r in self._r)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            [[self._r[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def trace(self) -> Fraction:
        if not self.is_square():
            raise DimensionMismatchError("trace of non-square matrix")
        return sum((self._r[i][i] for i in range(self.rows)), ZERO)

    def _check_same_shape(self, other: "RationalMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatchError(
                f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    # -- equality / hashing

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and self._r == other._r

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._r)
        return self._hash

    def __repr__(self) -> str:
        body = "; ".join(" ".join(rat_to_str(x) for x in r) for r in self._r)
        return f"RationalMatrix[{body}]"

    # -- serialization

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[rat_to_str(x) for x in r] for r in self._r],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RationalMatrix":
        try:
            entries = obj["entries"]
            m = cls(entries)
        except (KeyError, TypeError) as exc:
            raise BadInputError(f"bad matrix object: {exc}") from exc
        if m.rows != obj.get("rows", m.rows) or m.cols != obj.get("cols", m.cols):
            raise BadInputError("matrix shape fields disagree with entries")
        return m


_INT64_BOUND = 2**62


def _int_form(m: RationalMatrix):
    """``(N, D, bound)`` with M = N / D: N the numerator rows as an int64
    array, D the least positive common denominator of the entries and bound
    the largest |N_ij|.  None when some numerator does not fit int64.
    Cached on the (immutable) matrix."""
    cached = m._int
    if cached is None:
        d = lcm(*{x.denominator for r in m._r for x in r})
        if d == 1:
            nums = [[x.numerator for x in r] for r in m._r]
        else:
            nums = [[x.numerator * (d // x.denominator) for x in r] for r in m._r]
        try:
            arr = np.array(nums, dtype=np.int64).reshape(m.rows, m.cols)
        except OverflowError:
            cached = False
        else:
            cached = (arr, d, _max_abs(arr))
        m._int = cached
    return cached or None


def _max_abs(arr) -> int:
    # in Python ints: np.abs wraps at -2**63
    return max(int(arr.max()), -int(arr.min())) if arr.size else 0


def _from_int(arr, d: int) -> RationalMatrix:
    """The matrix arr / d for an int64 array and a positive int d, with its
    integer form cached."""
    g = gcd(int(np.gcd.reduce(arr, axis=None)), d)
    if g > 1:
        arr, d = arr // g, d // g
    nested = arr.tolist()
    # a product has few distinct entries: build each Fraction once
    frac = {x: Fraction(x, d) for x in set().union(*nested)}.__getitem__
    m = RationalMatrix._raw(tuple(tuple(map(frac, r)) for r in nested))
    m._int = (arr, d, _max_abs(arr))
    return m


def _int_product(a: RationalMatrix, b: RationalMatrix, commute: bool):
    """AB, or AB - BA when ``commute``, as one int64 product of the scaled
    numerators divided exactly by D_a D_b; None when an operand has no int64
    form or the overflow bound fails (the caller falls back to Fraction)."""
    fa, fb = _int_form(a), _int_form(b)
    if fa is None or fb is None:
        return None
    na, da, ma = fa
    nb, db, mb = fb
    if (2 if commute else 1) * ma * mb * max(a.cols, 1) >= _INT64_BOUND:
        return None
    prod = na @ nb
    if commute:
        prod = prod - nb @ na
    return _from_int(prod, da * db)


def _matmul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    if a.cols != b.rows:
        raise DimensionMismatchError(f"inner dims {a.cols} != {b.rows}")
    out = _int_product(a, b, False)
    if out is not None:
        return out
    bt = list(zip(*b._r))
    return RationalMatrix(
        [[sum((x * y for x, y in zip(ra, cb)), ZERO) for cb in bt] for ra in a._r]
    )


def commutator(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    if a.rows == a.cols == b.rows == b.cols:
        out = _int_product(a, b, True)
        if out is not None:
            return out
    return a * b - b * a


def nu(p: int, q: int, i: int) -> int:
    """Sign of the i-th basis vector (1-based) of R^{p,q}."""
    return 1 if i <= p else -1


def eta(p: int, q: int) -> RationalMatrix:
    """The form matrix diag(I_p, -I_q)."""
    return RationalMatrix.diag([1] * p + [-1] * q)


# ---------------------------------------------------------------------------
# elimination: every routine below reads a SpanBuilder


def _dense(sparse: dict, n: int) -> tuple[Fraction, ...]:
    return tuple(sparse.get(i, ZERO) for i in range(n))


def rref(m: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot column indices: the echelon rows
    of the span of m's rows, padded with zero rows."""
    echelon = SpanBuilder(m._r)._rows
    rows = [_dense(row, m.cols) for _, row, _ in echelon]
    rows += [(ZERO,) * m.cols] * (m.rows - len(rows))
    return RationalMatrix._raw(tuple(rows)), tuple(piv for piv, _, _ in echelon)


def rank(m: RationalMatrix) -> int:
    return SpanBuilder(m._r).dim


def kernel_basis(m: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space {v : Mv = 0}; empty iff full column rank.
    Each column in the span of the pivot columns before it gives e_j minus
    its coordinates over them."""
    cols = list(zip(*m._r))
    span, pivots, free = SpanBuilder(), [], []
    for j, col in enumerate(cols):
        (pivots if span.add(col) else free).append(j)
    basis = []
    for fc in free:
        v = [ZERO] * m.cols
        v[fc] = ONE
        for k, c in span.coords(cols[fc]).items():
            v[pivots[k]] = -c
        basis.append(tuple(v))
    return basis


def solve(a: RationalMatrix, b) -> tuple[Fraction, ...]:
    """Solve Ax = b for square invertible A: x is b's coordinates over the
    columns of A."""
    if not a.is_square():
        raise DimensionMismatchError("solve requires a square matrix")
    bv = [rat(x) for x in b]
    if len(bv) != a.rows:
        raise DimensionMismatchError("right-hand side length mismatch")
    span = SpanBuilder(zip(*a._r))
    if span.dim != a.cols:
        raise SingularMatrixError("matrix is singular")
    return _dense(span.coords(bv), a.cols)


def inverse(a: RationalMatrix) -> RationalMatrix:
    """A^{-1}: its row j is the coordinates of e_j over the rows of A."""
    if not a.is_square():
        raise DimensionMismatchError("inverse of non-square matrix")
    n = a.rows
    span = SpanBuilder(a._r)
    if span.dim != n:
        raise SingularMatrixError("matrix is singular")
    return RationalMatrix._raw(tuple(_dense(span.coords({j: ONE}), n) for j in range(n)))


def char_poly(m: RationalMatrix) -> list[Fraction]:
    """Coefficients [1, c_1, ..., c_n] of det(xI - M), highest degree first.

    Faddeev-LeVerrier recursion; exact over the rationals.
    """
    if not m.is_square():
        raise DimensionMismatchError("char_poly of non-square matrix")
    n = m.rows
    coeffs = [ONE]
    mk = RationalMatrix.identity(n)
    for k in range(1, n + 1):
        mk = m * mk
        ck = -mk.trace() / k
        coeffs.append(ck)
        if k < n:
            mk = mk + RationalMatrix.identity(n).scale(ck)
    return coeffs


def _poly_eval(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = ZERO
    for c in coeffs:
        acc = acc * x + c
    return acc


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def rational_roots(coeffs: list[Fraction]) -> tuple[dict[Fraction, int], int]:
    """Rational roots with multiplicities, plus the degree of the
    root-free remainder factor (0 when the polynomial splits over Q)."""
    work = list(coeffs)
    roots: dict[Fraction, int] = {}
    # strip zero roots first
    while len(work) > 1 and work[-1] == 0:
        roots[ZERO] = roots.get(ZERO, 0) + 1
        work = work[:-1]
    while len(work) > 1:
        den = lcm(*[c.denominator for c in work]) if len(work) > 1 else 1
        iw = [int(c * den) for c in work]
        lead, const = iw[0], iw[-1]
        found = None
        for p in _divisors(const):
            for q in _divisors(lead):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if _poly_eval(work, cand) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            break
        roots[found] = roots.get(found, 0) + 1
        # synthetic division by (x - found)
        new = [work[0]]
        for c in work[1:-1]:
            new.append(c + found * new[-1])
        work = new
    return roots, len(work) - 1


# ---------------------------------------------------------------------------
# signature


def signature(m: RationalMatrix) -> tuple[int, int, int]:
    """Sylvester inertia (positives, negatives, nullity) of a symmetric matrix.

    Exact symmetric congruence diagonalization.  When every remaining
    diagonal entry is zero but some off-diagonal a_ij is not, the congruence
    v_i -> v_i + v_j creates the hyperbolic pair (+2a_ij on the diagonal)
    and elimination proceeds.
    """
    if not m.is_symmetric():
        raise NotSymmetricError("signature requires a symmetric matrix")
    a = [list(r) for r in m._r]
    n = m.rows
    pos = neg = 0
    k = 0
    while k < n:
        piv = next((i for i in range(k, n) if a[i][i] != 0), None)
        if piv is None:
            hyper = next(
                (
                    (i, j)
                    for i in range(k, n)
                    for j in range(i + 1, n)
                    if a[i][j] != 0
                ),
                None,
            )
            if hyper is None:
                break  # remaining block is zero
            i, j = hyper
            # congruence: add row/col j to row/col i; diagonal becomes 2a_ij
            for c in range(n):
                a[i][c] += a[j][c]
            for r_ in range(n):
                a[r_][i] += a[r_][j]
            piv = i
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            for r_ in range(n):
                a[r_][k], a[r_][piv] = a[r_][piv], a[r_][k]
        d = a[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for r_ in range(k + 1, n):
            if a[r_][k] != 0:
                f = a[r_][k] / d
                a[r_] = [x - f * y for x, y in zip(a[r_], a[k])]
        for c in range(k + 1, n):
            a[k][c] = ZERO
        # mirror the column elimination (rows below already updated)
        for r_ in range(k + 1, n):
            a[r_][k] = ZERO
        k += 1
    return pos, neg, n - pos - neg


class SignatureForm:
    """A symmetric non-degenerate-or-not bilinear form with cached inertia."""

    __slots__ = ("matrix", "p", "q", "nullity", "_inv")

    def __init__(self, matrix: RationalMatrix):
        if not matrix.is_symmetric():
            raise NotSymmetricError("form matrix must be symmetric")
        self.matrix = matrix
        self.p, self.q, self.nullity = signature(matrix)
        self._inv = None

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def is_nondegenerate(self) -> bool:
        return self.nullity == 0

    def inverse_matrix(self) -> RationalMatrix:
        if self._inv is None:
            self._inv = inverse(self.matrix)
        return self._inv

    def pair(self, u, v) -> Fraction:
        """Evaluate the form on two coordinate vectors."""
        return sum(
            (x * y for x, y in zip(u, self.matrix.apply(v))), ZERO
        )

    def scaled(self, c) -> "SignatureForm":
        return SignatureForm(self.matrix.scale(c))

    def __eq__(self, other) -> bool:
        return isinstance(other, SignatureForm) and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(("SignatureForm", self.matrix))

    def to_json(self) -> dict:
        return self.matrix.to_json()

    @classmethod
    def from_json(cls, obj: dict) -> "SignatureForm":
        return cls(RationalMatrix.from_json(obj))

    @classmethod
    def standard(cls, p: int, q: int) -> "SignatureForm":
        return cls(eta(p, q))


# ---------------------------------------------------------------------------
# incremental sparse span: the package's one Gaussian elimination


def _axpy(dst: dict, c: Fraction, src: dict) -> None:
    """dst += c * src on sparse dicts, dropping the entries that cancel."""
    for i, x in src.items():
        y = dst.get(i, ZERO) + c * x
        if y:
            dst[i] = y
        else:
            dst.pop(i, None)


def matrix_to_sparse(m: RationalMatrix) -> dict:
    out = {}
    idx = 0
    for r in m._r:
        for x in r:
            if x:
                out[idx] = x
            idx += 1
    return out


def _sparse(vec) -> dict:
    """A fresh sparse dict of a RationalMatrix (row-major), of a sparse dict
    or of a coordinate sequence."""
    if isinstance(vec, RationalMatrix):
        return matrix_to_sparse(vec)
    if isinstance(vec, dict):
        return dict(vec)
    return {i: x for i, x in enumerate(map(rat, vec)) if x}


class SpanBuilder:
    """Reduced row-echelon span of ``vectors``, grown by ``add``, with
    coordinate tracking.

    A vector is a ``RationalMatrix`` (read row-major), a coordinate sequence
    or a dict {index: Fraction} with zero entries absent.  Each echelon row
    remembers its expression in the vectors that enlarged the span, numbered
    0, 1, ... in the order they were added, so ``coords`` recovers exact
    coefficients over them.
    """

    def __init__(self, vectors=()):
        self._rows: list[tuple[int, dict, dict]] = []  # (pivot, vec, comb)
        for v in vectors:
            self.add(v)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _reduce(self, vec) -> tuple[dict, dict]:
        v = _sparse(vec)
        comb: dict[int, Fraction] = {}
        for piv, row, rcomb in self._rows:
            c = v.get(piv)
            if c:
                _axpy(v, -c, row)
                _axpy(comb, c, rcomb)
        return v, comb

    def add(self, vec) -> bool:
        """Add a vector; returns True iff it enlarged the span."""
        v, comb = self._reduce(vec)
        if not v:
            return False
        piv = min(v)
        d = v[piv]
        row = {i: x / d for i, x in v.items()}
        rcomb = {lbl: -x / d for lbl, x in comb.items()}
        rcomb[len(self._rows)] = ONE / d
        # keep full reduced echelon form: clear the new pivot column in the
        # existing rows so every reduction pass terminates with a canonical
        # residual
        for _, orow, ocomb in self._rows:
            c = orow.get(piv)
            if c:
                _axpy(orow, -c, row)
                _axpy(ocomb, -c, rcomb)
        self._rows.append((piv, row, rcomb))
        self._rows.sort(key=lambda t: t[0])
        return True

    def contains(self, vec) -> bool:
        v, _ = self._reduce(vec)
        return not v

    def coords(self, vec) -> dict | None:
        """Coefficients over the added vectors, or None if outside the span."""
        v, comb = self._reduce(vec)
        return None if v else comb


# ---------------------------------------------------------------------------
# matrix subspaces


class MatrixSubspace:
    """A subspace of ambient_dim x ambient_dim matrices with an independent
    basis, grown only by ``adjoin``; dependent generator lists are rejected."""

    __slots__ = ("ambient_dim", "basis", "_span")

    def __init__(self, ambient_dim: int, basis=()):
        self.ambient_dim, self.basis, self._span = ambient_dim, (), SpanBuilder()
        enlarged = [self.adjoin(m) for m in basis]
        if not all(enlarged):
            raise DependentBasisError("generator list is linearly dependent")

    def adjoin(self, m: RationalMatrix) -> bool:
        """Append m to the basis iff it lies outside the subspace; returns
        whether it did.  Only for building: never extend a held subspace."""
        if m.rows != self.ambient_dim or m.cols != self.ambient_dim:
            raise DimensionMismatchError(
                f"basis matrix is {m.rows}x{m.cols}, ambient is {self.ambient_dim}"
            )
        if not self._span.add(m):
            return False
        self.basis += (m,)
        return True

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, m: RationalMatrix) -> bool:
        if m.rows != self.ambient_dim or m.cols != self.ambient_dim:
            return False
        return self._span.contains(m)

    def coords(self, m: RationalMatrix) -> tuple[Fraction, ...] | None:
        """Coefficients of m over the basis, or None if m is outside."""
        if m.rows != self.ambient_dim or m.cols != self.ambient_dim:
            return None
        comb = self._span.coords(m)
        return None if comb is None else _dense(comb, self.dim)

    def element(self, coeffs) -> RationalMatrix:
        return lin_comb(coeffs, self.basis, self.ambient_dim)

    def equals(self, other: "MatrixSubspace") -> bool:
        """Subspace equality: equal dimension and containment."""
        return self.dim == other.dim and other.contains_subspace(self)

    def contains_subspace(self, other: "MatrixSubspace") -> bool:
        return self.ambient_dim == other.ambient_dim and all(
            self.contains(b) for b in other.basis
        )

    def to_json(self) -> dict:
        return {
            "ambient": self.ambient_dim,
            "basis": [b.to_json() for b in self.basis],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MatrixSubspace":
        try:
            return cls(obj["ambient"], [RationalMatrix.from_json(b) for b in obj["basis"]])
        except (KeyError, TypeError) as exc:
            raise BadInputError(f"bad subspace object: {exc}") from exc


def independent_subset(ambient_dim: int, mats) -> MatrixSubspace:
    """Span of an arbitrary matrix list as a subspace: its basis is the
    matrices that enlarge the span, in order."""
    s = MatrixSubspace(ambient_dim)
    for m in mats:
        s.adjoin(m)
    return s


def lin_comb(coeffs, mats, dim: int) -> RationalMatrix:
    """The dim x dim matrix sum_i c_i M_i (zero for an empty list)."""
    rows = [[ZERO] * dim for _ in range(dim)]
    for c, m in zip(coeffs, mats):
        c = rat(c)
        if not c:
            continue
        if m.rows != dim or m.cols != dim:
            raise DimensionMismatchError(f"{m.rows}x{m.cols} term in a {dim}x{dim} sum")
        for acc, r in zip(rows, m._r):
            for j, x in enumerate(r):
                if x:
                    acc[j] += c * x
    return RationalMatrix._raw(tuple(map(tuple, rows)))


def trace_pairing(xs, ys) -> RationalMatrix:
    """The matrix [tr(X_a Y_b)] for r x c matrices X_a and c x r matrices Y_b.

    tr(XY) = sum_ij X_ij Y_ji, so this is one product of the stacked
    row-major vec(X_a) with the stacked vec(Y_b^T) as columns."""
    xs, ys = list(xs), list(ys)
    if not (xs and ys):
        return RationalMatrix.zeros(len(xs), len(ys))
    r, c = xs[0].rows, xs[0].cols
    if any(x.rows != r or x.cols != c for x in xs) or any(
        y.rows != c or y.cols != r for y in ys
    ):
        raise DimensionMismatchError("trace pairing needs r x c against c x r matrices")
    if not c:
        return RationalMatrix.zeros(len(xs), len(ys))
    vec_x = RationalMatrix._raw(tuple(tuple(x.entries()) for x in xs))
    # row (i, j) of the right factor holds (Y_b^T)_ij = (Y_b)_ji for every b
    vec_yt = RationalMatrix._raw(
        tuple(zip(*(tuple(v for col in zip(*y._r) for v in col) for y in ys)))
    )
    return _matmul(vec_x, vec_yt)


def trace_gram(s: MatrixSubspace) -> RationalMatrix:
    """Gram matrix of the trace form <X, Y> = -tr(XY) on the basis of s."""
    return -trace_pairing(s.basis, s.basis)
