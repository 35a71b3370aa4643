"""Exact rational dense linear algebra.

Each matrix is stored as M = N / D alone: N the numerators, numpy int64
when every |entry| is below 2**62 and exact Python ints otherwise, D the
least positive common denominator, so (shape, D, N) is canonical.  Sums,
products, commutators, comparisons and hashes are array operations on the
N's, where a bound on each result only picks the dtype (each matrix
computes its max |N| once); there is no floating point anywhere.  A
computed matrix reaches lowest terms only in ``RationalMatrix._of``.
Entries enter as reduced (n, d) pairs, each
Fraction is built as Fraction(x, D) only for what a public function returns,
and an entry's text is printed straight from (N, D), or, for a large int64 N
whose values span fewer integers than it has entries, gathered in one step
from a table of the texts of the values it spans (``_entry_texts``, the one
source of entry text).  The canonical writer prints a matrix's entries list
through ``EntriesText``, with no JSON object built: a zero row is one
template per width and indent, a row with one nonzero is that template with
its text put in at a fixed offset, kept by (column, text) for the rest of
the output, and any other row is one join.  A list of matrices that share a
shape of fewer than _STACK_MAX entries (a subspace's basis, a module's
generators, an algebra's C^k) goes through ``StackText`` as one value: the
N's over each denominator are stacked, and every row comes from one such
pass over the stack, so the stack's entry count, not each matrix's, picks
between the per-entry join, the value table and the row templates.

One kernel, ``_product_numerators``, makes every product but
``eta_pairings``' stacked product, ``polarized_match``'s batched matmul and
``closure_is_full``'s products mod a prime.  A square operand of size at
least 16 is checked once, the first time it is multiplied, for being
monomial (one nonzero in every row and every column, as a signed
permutation is); a product with a monomial left operand is then a gather
of the other operand's rows, scaled, instead of a dense integer matrix
product.  A signed permutation built from its index arrays
(``RationalMatrix.signed_permutation``) carries that form from the start,
with no scan.  With the entries vec(M_l) of matrices stacked as rows, the
linear combinations sum_l A_kl M_l for all rows k of A are one product
(``lin_combs``, and ``skew_combs`` for M_l = -G J_l, made by one product of
G with the J_l side by side; ``_combs_each`` stacks the M of several
coefficient matrices once, for the reduction's structures and certificate),
and so are all traces tr(X_a Y_b) = vec(X_a) . vec(Y_b^T) (``trace_pairing``)
and the trace Grams of every eta twist (``eta_pairings``).

One fraction-free step, ``_cancel``, clears a pivot column from a row of
Python ints by gcd steps, and every elimination is made of it.
``SpanBuilder``, an incremental reduced echelon span of matrices, integer
rows, coordinate sequences or sparse dicts, runs on it: a matrix or a row
enters straight from (N, D), and a vector in the span comes out as an
integer relation (num, den), from which rref builds its matrix.  rref and
rank read the span of the rows of N, kernel_basis and solve the coordinates
of its columns, inverse the combinations of the echelon rows of N's rows
(each num[p] e_p = sum_l comb[l] N_l once every column is a pivot, so no
vector is reduced after the span is built), ``_closure`` the span that a
list of matrices generates from one vector (``closure_is_full`` proves it
full mod a prime, by one batched Krylov rank test), and ``MatrixSubspace``
keeps the span of its basis, built when a query first needs it;
``signature`` clears the rows of N by the same step.  A diagonal matrix
takes no elimination: ``signature`` counts the signs of its diagonal and
``inverse`` writes row i as (D / N_ii) e_i.

The module provides:

- ``RationalMatrix``: immutable dense matrix over the rationals, as (N, D),
- rank / kernel / solve / inverse / characteristic polynomial,
- ``signature``: Sylvester inertia by fraction-free symmetric elimination
  (with hyperbolic 2x2 steps where every diagonal pivot is zero), or the
  signs of the diagonal of a diagonal matrix (``diagonal_entries``),
- ``SignatureForm``: a symmetric matrix together with its inertia,
- ``MatrixSubspace``: a subspace of m x m matrices given by an independent
  basis, with exact membership and coordinate computations; ``mapped``
  hands a basis on through a one-to-one map with no elimination,
- ``lin_combs`` / ``lin_comb`` / ``skew_combs``: linear combinations of matrices,
- ``trace_pairing`` / ``trace_gram`` / ``eta_pairings``: all traces tr(X_a Y_b),
  the Gram matrix of the trace form <X, Y> = -tr(XY), and its eta twists,
- ``polarized_match``: X_k Y_l + X_l Y_k == c_kl T for every pair at once,
- ``phi_matrices``: the basis phi_ij of so(p,q), from one integer array,
- canonical string/JSON serialization with bit-exact round-trip, and
  ``jsonify``, the one conversion of a report to plain JSON values.
"""

from __future__ import annotations

import dataclasses
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

import numpy as np

from .errors import (
    BadInputError,
    DependentBasisError,
    DimError,
    DimensionMismatchError,
    NotSymmetricError,
    SingularMatrixError,
)

ZERO = Fraction(0)
ONE = Fraction(1)

# ---------------------------------------------------------------------------
# rationals


def _pair(x) -> tuple[int, int]:
    """(n, d) in lowest terms with d > 0 of an int, Fraction or canonical
    "a/b" string: the integer intake of every matrix and coefficient."""
    t = type(x)
    if t is int:
        return x, 1
    if t is str:
        return _rat_pair(x)
    if t is bool:
        raise BadInputError(f"boolean {x!r} is not a rational")
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, int):
        return int(x), 1
    raise BadInputError(f"cannot interpret {x!r} as a rational")


def rat(x) -> Fraction:
    """Coerce an int, Fraction or canonical "a/b" string to a Fraction."""
    if type(x) is Fraction:
        return x
    return Fraction(*_pair(x))


def _ratio_str(n: int, d: int) -> str:
    """Canonical text of n / d for d > 0: "a/b" in lowest terms, or "a" when
    the reduced denominator is 1."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def rat_to_str(x: Fraction) -> str:
    """Canonical form "a/b", or "a" when the denominator is 1."""
    return _ratio_str(x.numerator, x.denominator)


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


@lru_cache(maxsize=4096)
def _rat_pair(s: str) -> tuple[int, int]:
    """Parse ASCII "[+-]digits" or "[+-]digits/digits" with a nonzero
    denominator to a reduced (n, d); any other text (spaces, "_", other
    digits) is rejected.  Memoized: a rejected literal raises on every call."""
    m = _RATIONAL.fullmatch(s)
    try:
        n, d = int(m[1]), int(m[2] or 1)
    except (TypeError, ValueError):  # no match (m is None), too many digits
        d = 0
    if not d:
        raise BadInputError(f"bad rational literal {s!r}")
    g = gcd(n, d)
    return n // g, d // g


# ---------------------------------------------------------------------------
# matrices: M = N / D

# an int64 N holds only entries below this in absolute value, so negation
# and abs never wrap; a result whose bound reaches it is computed in Python
# ints instead
_INT64_BOUND = 2**62

# the text of an N x N matrix with entries in {-1, 0, 1} / D, entry by entry
# against one gather from a table of its values' strings, on a 2-CPU x86-64
# VM: 5.0 against 6.8 us (D = 1) and 11 against 16 us (D = 6) at N = 5, 14
# against 9 and 23 against 10 us at N = 8, 563 against 50 and 1374 against
# 76 us at N = 64; smaller matrices are printed entry by entry.  The writer
# joins each row of a matrix of fewer entries than this too: a 5 x 5 identity
# took 6.7 us joined against 19 us through a new row memo, and a signed
# permutation 15 against 16 us at N = 8 and 18 against 18 us at N = 16
_TABLE_MIN = 64

# a list of matrices that share a shape of fewer entries than this is printed
# as one stack (``StackText``).  The writer's time stacked against matrix by
# matrix, on a 2-CPU x86-64 VM: 0.77-0.78 for a Clifford module's generators
# at N = 32 and 64, 0.93 at N = 128 and 1.08-1.13 at N = 256; 0.85 for the
# C^k of n_{r,s} at m = 32 and 64 and 1.00 at m = 128; 0.26 for so(4,4)'s 28
# phi_ij (8 x 8) and 0.65 for a triple report's 16 x 16 basis
_STACK_MAX = 128 * 128


def _entry_texts(n, d: int) -> list[str]:
    """The canonical text of each entry of the integer array n over d, row-major:
    the one source of an entry's text.  An int64 n of at least _TABLE_MIN entries
    whose values span fewer integers than it has entries takes its text from a
    table of ``_ratio_str(v, d)`` for every v from min n to max n, in one gather;
    any other n is printed entry by entry."""
    if n.dtype == np.int64 and n.size >= _TABLE_MIN:
        lo, hi = int(n.min()), int(n.max())
        if hi - lo + 1 < n.size:
            table = np.array([_ratio_str(v, d) for v in range(lo, hi + 1)], dtype=object)
            return table[n.ravel() - lo].tolist()
    flat = n.ravel().tolist()
    return list(map(str, flat)) if d == 1 else [_ratio_str(x, d) for x in flat]


def _bound(n) -> int:
    """The largest |N_ij| as a Python int (0 for an empty array)."""
    return int(np.abs(n).max()) if n.size else 0


def _integer_form(pair_rows, shape) -> tuple:
    """(N, D, max |N|) of rows of reduced pairs (n, d): D is their lcm, so N / D
    is in lowest terms with no gcd pass."""
    d = lcm(*{e for r in pair_rows for _, e in r})
    nums = [[x * (d // e) for x, e in r] for r in pair_rows]
    bound = max((max(map(abs, r)) for r in nums if r), default=0)
    n = np.array(nums, dtype=object if bound >= _INT64_BOUND else np.int64)
    return n.reshape(shape), d, bound


def _listed(xs, what: str):
    """xs itself, unless it is text or a dict, which iterate as characters
    or keys: a JSON string is not a row of entries."""
    if isinstance(xs, (str, bytes, dict)):
        raise BadInputError(f"{what} must be a list, not {xs!r}")
    return xs


class RationalMatrix:
    """Immutable dense matrix over the rationals, stored as M = N / D: N an
    integer array (int64, or Python ints when an entry needs them) and D the
    least positive common denominator.  Fractions are built on demand; the
    largest |N_ij| is computed once, when first asked for."""

    __slots__ = ("rows", "cols", "_n", "_d", "_max", "_hash", "_mono")

    def __init__(self, rows):
        pair_rows = [list(map(_pair, _listed(r, "a row"))) for r in _listed(rows, "rows")]
        cols = len(pair_rows[0]) if pair_rows else 0
        if any(len(r) != cols for r in pair_rows):
            raise DimensionMismatchError("ragged rows")
        self._store(*_integer_form(pair_rows, (len(pair_rows), cols)))

    def _store(self, n, d: int, bound) -> None:
        if not n.shape[0]:
            n = n.reshape(0, 0)  # a matrix with no rows is 0 x 0
        n.flags.writeable = False
        self.rows, self.cols = n.shape
        self._n, self._d, self._max, self._hash, self._mono = n, d, bound, None, None

    @classmethod
    def _raw(cls, n, d: int, bound=None) -> "RationalMatrix":
        """n / d as it is, for an integer array n already over its D."""
        m = object.__new__(cls)
        m._store(n, d, bound)
        return m

    def _like(self, n, mono=None) -> "RationalMatrix":
        """n / D for n holding the entries of N, moved or negated (form ``mono``)."""
        m = RationalMatrix._raw(n, self._d, self._max)
        m._mono = mono
        return m

    @classmethod
    def _of(cls, n, d: int, content: int | None = None) -> "RationalMatrix":
        """The matrix n / d for an integer array n (int64 below the bound, or
        Python ints) and a positive int d, brought to lowest terms: the one
        place a computed matrix is reduced.  ``content``, the gcd of n's
        entries (0 for a zero n), is taken when the caller already has it."""
        if d > 1:
            if content is None:
                content = int(np.gcd.reduce(n, axis=None))
            g = gcd(content, d)  # d for a zero n, whose D is then 1
            if g > 1:
                n, d = (n // g if content else n), d // g
        bound = _bound(n) if n.dtype == object else None
        if bound is not None and bound < _INT64_BOUND:
            n = n.astype(np.int64)  # the canonical dtype
        return cls._raw(n, d, bound)

    # -- constructors

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls._of(np.zeros((rows, cols), dtype=np.int64), 1)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._of(np.eye(n, dtype=np.int64), 1)

    @classmethod
    def diag(cls, values) -> "RationalMatrix":
        vals = list(map(_pair, _listed(values, "diagonal values")))
        n, d, _ = _integer_form([vals], (1, len(vals)))
        return cls._of(np.diag(n[0]), d)

    @classmethod
    def from_relations(cls, rels, cols: int) -> "RationalMatrix":
        """The matrix with row i num / den for rels[i] = (num, den): an int dict
        {column: value} over a positive int, as eliminations answer (N int64 below 2**62)."""
        d = lcm(*(e for _, e in rels))
        vals = [x * (d // e) for num, e in rels for x in num.values()]
        bound = max(map(abs, vals), default=0)
        n = np.zeros((len(rels), cols), dtype=object if bound >= _INT64_BOUND else np.int64)
        nums = [num for num, _ in rels]
        n[[i for i, num in enumerate(nums) for _ in num], [j for num in nums for j in num]] = vals
        return cls._of(n, d)

    @classmethod
    def signed_permutation(cls, cols, vals) -> "RationalMatrix":
        """The N x N integer matrix with vals[i] at (i, cols[i]) and 0
        elsewhere, for cols a permutation of range(N) and nonzero int vals.
        Both are checked here, so the matrix carries its monomial form from
        the start (size at least _GATHER_MIN, as ``_monomial`` decides) and
        its bound from vals: no product or bound scans its N x N array."""
        n = len(cols)
        if len(vals) != n or sorted(cols) != list(range(n)):
            raise DimensionMismatchError(f"{cols!r} is not a permutation of {len(vals)} columns")
        if {*map(type, vals)} - {int} or 0 in vals:
            raise BadInputError(f"signed-permutation values {vals!r} are not nonzero ints")
        bound = max(map(abs, vals), default=0)
        vals = np.array(vals, dtype=object if bound >= _INT64_BOUND else np.int64)
        cols = np.array(cols, dtype=np.intp)
        entries = np.zeros((n, n), dtype=vals.dtype)
        entries[np.arange(n), cols] = vals
        m = cls._raw(entries, 1, bound)
        if n >= _GATHER_MIN:
            m._mono = cols, vals
        return m

    # -- access: Fractions on demand

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self._n.item(i, j), self._d)

    def row(self, i: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self._d) for x in self._n[i].tolist())

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self._d) for x in self._n[:, j].tolist())

    def entries(self):
        """Iterate over all entries row-major."""
        return (Fraction(x, self._d) for x in self._n.ravel().tolist())

    # -- structure predicates

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square() and bool((self._n == self._n.T).all())

    def is_antisymmetric(self) -> bool:
        return self.is_square() and bool((self._n == -self._n.T).all())

    def is_integer(self) -> bool:
        return self._d == 1

    def is_ternary(self) -> bool:
        """Every entry is -1, 0 or 1."""
        return self._d == 1 and _nmax(self) <= 1

    # -- arithmetic

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_same_shape(other)
        return _combine([((1, 1), self), ((1, 1), other)], (self.rows, self.cols))

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_same_shape(other)
        return _combine([((1, 1), self), ((-1, 1), other)], (self.rows, self.cols))

    def __neg__(self) -> "RationalMatrix":
        return self._like(-self._n, self._mono and (self._mono[0], -self._mono[1]))

    def scale(self, c) -> "RationalMatrix":
        return _combine([(_pair(c), self)], (self.rows, self.cols))

    def __mul__(self, other):
        if isinstance(other, RationalMatrix):
            return _matmul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def apply(self, vec) -> tuple[Fraction, ...]:
        """Matrix-vector product."""
        column = RationalMatrix([(x,) for x in vec])
        if column.rows != self.cols:
            raise DimensionMismatchError(f"vector length {column.rows} != cols {self.cols}")
        return tuple(_int_product(self, column, False).entries())

    def transpose(self) -> "RationalMatrix":
        mono = self._mono  # row j of M^T holds vals[i] at column i, cols[i] = j
        if mono:
            inv = np.argsort(mono[0])
            mono = inv, mono[1][inv]
        return self._like(self._n.T, mono)

    def trace(self) -> Fraction:
        if not self.is_square():
            raise DimensionMismatchError("trace of non-square matrix")
        return Fraction(sum(self._n.diagonal().tolist()), self._d)

    def _check_same_shape(self, other: "RationalMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatchError(
                f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    # -- equality / hashing: (shape, D, N) is canonical

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._d == other._d
            and bool((self._n == other._n).all())
        )

    def __hash__(self) -> int:
        if self._hash is None:
            n = self._n
            key = tuple(n.flat) if n.dtype == object else n.tobytes()
            self._hash = hash((self.rows, self.cols, self._d, key))
        return self._hash

    def __repr__(self) -> str:
        body = "; ".join(map(" ".join, self.to_json()["entries"]))
        return f"RationalMatrix[{body}]"

    # -- serialization

    def to_json(self) -> dict:
        """Each entry as canonical text, from ``_entry_texts``."""
        return jsonify(self)

    def _json_parts(self) -> dict:
        """The fields of ``to_json``, entries as ``EntriesText``."""
        return {"rows": self.rows, "cols": self.cols, "entries": EntriesText(self)}

    @classmethod
    def from_json(cls, obj: dict) -> "RationalMatrix":
        try:
            m = cls(obj["entries"])
            shape = (obj.get("rows", m.rows), obj.get("cols", m.cols))
        except (KeyError, TypeError) as exc:
            raise BadInputError(f"bad matrix object: {exc}") from exc
        if shape != (m.rows, m.cols) or any(type(x) is not int for x in shape):
            raise BadInputError(f"matrix shape fields {shape} disagree with entries")
        return m


class EntriesText:
    """A matrix's ``entries`` list as the canonical writer prints it (the
    ``json.dumps(indent=2)`` layout), read straight from (N, D).  A matrix
    of fewer than _TABLE_MIN entries, or more than half of whose entries are
    nonzero, is one join of its entry texts per row.  In any other, a row
    with at most one nonzero, a zero row or a row of a signed permutation,
    comes from ``_RowText`` by (column, text), and any other row is one join."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: RationalMatrix):
        self.matrix = matrix

    def lists(self) -> list[list[str]]:
        """The entries as rows of texts, the plain JSON of ``to_json``."""
        m = self.matrix
        texts, c = _entry_texts(m._n, m._d), m.cols
        return [texts[i * c : i * c + c] for i in range(m.rows)]

    def pieces(self, nl: str, memo: dict) -> list[str]:
        """The list's text at line break nl (its closing bracket's line), in
        pieces for the output's one join; memo maps (cols, nl) to a ``_RowText``
        and should live for one output."""
        m = self.matrix
        inner = nl + "  "
        if not m.rows:
            return ["[]"]
        out = ["," + inner] * (2 * m.rows + 1)
        out[0], out[1::2], out[-1] = "[" + inner, self._rows(m._n, m._d, inner, memo), nl + "]"
        return out

    @staticmethod
    def _rows(n, d: int, inner: str, memo: dict) -> list[str]:
        """The text of each row of the integer array n over d at line break
        inner: the one row-text routine, for one matrix or a stack of them."""
        nrows, cols = n.shape
        if not cols:
            return ["[]"] * nrows
        rows = memo.get((cols, inner))
        if rows is None:
            rows = memo[cols, inner] = _RowText(cols, inner)
        if n.size >= _TABLE_MIN:
            nz = n != 0
            nnz = np.count_nonzero(nz)
        if n.size < _TABLE_MIN or 2 * nnz > n.size:
            texts = _entry_texts(n, d)
            return [rows.join(texts[i * cols : i * cols + cols]) for i in range(nrows)]
        js = nz.argmax(axis=1)  # each row's first nonzero column, 0 in a zero row
        lead = n[np.arange(nrows), js]
        keys = zip(js.tolist(), _entry_texts(lead, d))
        if np.count_nonzero(lead) == nnz:  # no row has a second nonzero
            return [rows[key] for key in keys]
        many = (np.count_nonzero(nz, axis=1) > 1).tolist()
        return [
            rows.join(_entry_texts(n[i], d)) if many[i] else rows[key]
            for i, key in enumerate(keys)
        ]


class StackText:
    """A list of matrices as the canonical writer prints it: each matrix as
    its entries list, or, with ``objects``, as its ``{"cols", "entries",
    "rows"}`` object.  Matrices that share a shape of fewer than _STACK_MAX
    entries are printed as one stack: the N's of each denominator are
    stacked, and every row's text comes from one ``EntriesText._rows`` pass
    over the stack, so the stack's entry count, not each matrix's, picks the
    route.  Any other list is printed matrix by matrix through
    ``EntriesText``."""

    __slots__ = ("matrices", "objects")

    def __init__(self, matrices, objects: bool):
        self.matrices, self.objects = matrices, objects

    def pieces(self, nl: str, memo: dict) -> list[str]:
        """The list's text at line break nl (its closing bracket's line), in
        pieces for the output's one join; memo is the row memo of
        ``EntriesText.pieces``."""
        mats = self.matrices
        if not mats:
            return ["[]"]
        inner = nl + "  "  # each matrix's line break
        at = inner + "  " if self.objects else inner  # each entries list's
        r, c = mats[0].rows, mats[0].cols
        if not 0 < r * c < _STACK_MAX or any(m.rows != r or m.cols != c for m in mats):
            out = []
            for i, m in enumerate(mats):
                head, tail = self._wrap(m, inner)
                out.append(("," if i else "[") + inner + head)
                out += EntriesText(m).pieces(at, memo)
                out.append(tail)
            out.append(nl + "]")
            return out
        groups = {}  # D -> the indices of the matrices over it
        for i, m in enumerate(mats):
            groups.setdefault(m._d, []).append(i)
        row = at + "  "
        if len(groups) == 1:
            rows = EntriesText._rows(np.concatenate([m._n for m in mats]), mats[0]._d, row, memo)
        else:
            rows = [None] * (len(mats) * r)
            for d, idx in groups.items():
                texts = EntriesText._rows(np.concatenate([mats[i]._n for i in idx]), d, row, memo)
                for k, i in enumerate(idx):
                    rows[i * r : i * r + r] = texts[k * r : k * r + r]
        head, tail = self._wrap(mats[0], inner)
        head, tail = head + "[" + row, at + "]" + tail
        out = ["," + row] * (2 * len(rows) + 1)
        out[0], out[1::2] = "[" + inner + head, rows
        out[2 * r :: 2 * r] = [tail + "," + inner + head] * (len(mats) - 1) + [tail + nl + "]"]
        return out

    def _wrap(self, m: RationalMatrix, inner: str) -> tuple[str, str]:
        """The text before and after m's entries list, m at line break inner."""
        if not self.objects:
            return "", ""
        at = inner + "  "
        return (
            "{" + at + '"cols": ' + str(m.cols) + "," + at + '"entries": ',
            "," + at + '"rows": ' + str(m.rows) + inner + "}",
        )


class _RowText(dict):
    """The text of each row of ``cols`` entries with at most one nonzero,
    keyed by (column, text), the zero row as (0, "0"): the text put in place
    of column j's "0" in the zero row on first use.  Every "0" has the same
    width, so column j sits at a fixed offset."""

    __slots__ = ("head", "sep", "tail", "zero", "at")

    def __init__(self, cols: int, inner: str):
        cell = inner + "  "
        self.head, self.sep, self.tail = "[" + cell + '"', '",' + cell + '"', '"' + inner + "]"
        self.zero = self.join("0" * cols)
        self.at = range(len(self.head), len(self.zero), len(self.sep) + 1)  # column j's "0"

    def join(self, texts) -> str:
        return self.head + self.sep.join(texts) + self.tail

    def __missing__(self, key) -> str:
        j, t = key
        p = self.at[j]
        row = self[key] = self.zero[:p] + t + self.zero[p + 1 :]
        return row


def jsonify(x):
    """x as plain JSON values: the one conversion behind every ``to_json``.  An
    object with ``_json_parts`` (a matrix, form, subspace, module or algebra)
    gives its ``to_json`` fields with matrices left as they are, converted in
    turn; any other ``to_json`` result is final and not walked again.  A float
    or any other type is a TypeError."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if type(x) is EntriesText:
        return x.lists()
    if type(x) is StackText:
        return [jsonify(m if x.objects else EntriesText(m)) for m in x.matrices]
    parts = getattr(type(x), "_json_parts", None)
    if parts is not None:
        return jsonify(parts(x))
    if isinstance(x, Fraction):
        return rat_to_str(x)
    to_json = getattr(x, "to_json", None)
    if to_json is not None:
        return to_json()
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: jsonify(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {str(k): jsonify(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonify(v) for v in x]
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _int_form(m: RationalMatrix) -> tuple:
    """The integer form (N, D) of m: M = N / D, D least."""
    return m._n, m._d


def _nmax(m: RationalMatrix) -> int:
    """max |N_ij| of m, computed the first time it is asked for."""
    if m._max is None:
        m._max = _bound(m._n)
    return m._max


def _over_lcd(terms, total) -> tuple:
    """(D, arrays) for terms (reduced pair c, matrix M): D the least common
    denominator of the c M and the arrays D c M.  They are int64 when
    ``total`` (sum or max) of their bounds is below the int64 bound, so that
    their sum (or stack) is exact, and Python ints otherwise."""
    dens = [b * m._d for (_, b), m in terms]
    d = lcm(*dens)
    fs = [a * (d // e) for ((a, _), _), e in zip(terms, dens)]
    # max(.., 1): an int64 array cannot even be multiplied by a huge factor
    bound = total([abs(f) * max(_nmax(m), 1) for f, (_, m) in zip(fs, terms)])
    dtype = object if bound >= _INT64_BOUND else np.int64
    # an N of that dtype with factor 1 is used as it is (it is read-only):
    # A + B for 6 x 6 matrices over one D takes 11 against 14 us with an
    # astype and a x1 per term, on a 2-CPU x86-64 VM like every per-call
    # time in the comments below
    ns = [m._n if m._n.dtype == dtype else m._n.astype(dtype) for _, m in terms]
    return d, [n if f == 1 else n * f for f, n in zip(fs, ns)]


def _combine(terms, shape) -> RationalMatrix:
    """sum c M over the terms (reduced pair c, matrix M of the given shape)."""
    d, parts = _over_lcd([(c, m) for c, m in terms if c[0]], sum)
    n = sum(parts[1:], parts[0]) if parts else np.zeros(shape, dtype=np.int64)
    return RationalMatrix._of(n, d)


# a dense int64 product against a gather, N x N on a 2-CPU x86-64 VM: 1.2
# against 2.3 us at N = 8, 3.4 against 2.9 us at N = 16, 20 against 3.7 us at
# N = 32; smaller operands are never checked for being monomial
_GATHER_MIN = 16


def _monomial(m: RationalMatrix):
    """(cols, vals) when N has exactly one nonzero in every row and every
    column, N[i, cols[i]] = vals[i]; None otherwise.  Decided once per
    matrix, and only for square matrices of size at least _GATHER_MIN:
    either scanned here, the first time it is asked for, or proved at
    construction (``RationalMatrix.signed_permutation``) and never scanned."""
    if m._mono is None:
        m._mono = False
        if m.rows == m.cols >= _GATHER_MIN:
            nonzero = m._n != 0
            if (nonzero.sum(axis=1) == 1).all() and (nonzero.sum(axis=0) == 1).all():
                cols = nonzero.argmax(axis=1)
                m._mono = cols, m._n[np.arange(m.rows), cols]
    return m._mono or None


def _times(na, ma, nb):
    """na @ nb, where ma is A's monomial form or None: the row gather
    diag(vals) nb[cols] when A is monomial, else the dense product (no
    product the verbs make has only B monomial)."""
    if ma is not None:
        cols, vals = ma
        return vals[:, None] * nb[cols]
    return na @ nb


def _product_numerators(a: RationalMatrix, b: RationalMatrix, commute: bool):
    """The numerators of AB, or of AB - BA when ``commute``, over D_a D_b, as
    one product of the N's, not yet in lowest terms; the bound on the
    result's numerators picks int64 or Python ints.  With a monomial operand
    each entry of a product is a single term."""
    ma, mb = _monomial(a), _monomial(b)
    terms = 1 if ma is not None or mb is not None else max(a.cols, 1)
    bound = (2 if commute else 1) * _nmax(a) * _nmax(b) * terms
    na, nb = a._n, b._n
    if bound >= _INT64_BOUND:
        na, nb = na.astype(object), nb.astype(object)
    prod = _times(na, ma, nb)
    if commute:
        prod = prod - _times(nb, mb, na)
    return prod


def _int_product(a: RationalMatrix, b: RationalMatrix, commute: bool) -> RationalMatrix:
    """AB, or AB - BA when ``commute``, in lowest terms."""
    return RationalMatrix._of(_product_numerators(a, b, commute), a._d * b._d)


def _matmul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    if a.cols != b.rows:
        raise DimensionMismatchError(f"inner dims {a.cols} != {b.rows}")
    return _int_product(a, b, False)


def commutator(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    if not a.rows == a.cols == b.rows == b.cols:
        raise DimensionMismatchError(f"commutator of {a.rows}x{a.cols} and {b.rows}x{b.cols}")
    return _int_product(a, b, True)


def nu(p: int, q: int, i: int) -> int:
    """Sign of the i-th basis vector (1-based) of R^{p,q}."""
    if p < 0 or q < 0:
        raise DimError("p and q must be non-negative")
    return 1 if i <= p else -1


@lru_cache(maxsize=128)
def eta(p: int, q: int) -> RationalMatrix:
    """The form matrix diag(I_p, -I_q); immutable, hence memoized."""
    if p < 0 or q < 0:
        raise DimError("p and q must be non-negative")
    return RationalMatrix.diag([1] * p + [-1] * q)


@lru_cache(maxsize=128)
def _eta_signs(p: int, q: int):
    """The read-only sign matrix (nu_i nu_j)_ij of eta(p, q), memoized:
    eta_conjugate of a 6 x 6 matrix takes 4.7 against 10 us with the outer
    product built on every call."""
    signs = np.diag(eta(p, q)._n)
    outer = np.multiply.outer(signs, signs)
    outer.flags.writeable = False
    return outer


def eta_conjugate(a: RationalMatrix, p: int, q: int) -> RationalMatrix:
    """A^eta = eta A^T eta as the sign flip (A^eta)_ij = nu_i nu_j A_ji."""
    signs = _eta_signs(p, q)
    if a.rows != a.cols or a.rows != p + q:
        raise DimensionMismatchError(f"A^eta of a {a.rows}x{a.cols} matrix for p+q = {p + q}")
    return a._like(a._n.T * signs)


def eta_sides(mats, p: int, q: int, left: bool) -> list[RationalMatrix]:
    """eta M (``left``) or M eta for each square M of size p + q: the sign
    flips nu_i of N's rows or columns, so D and the bound do not change."""
    signs = np.diag(eta(p, q)._n)
    return [m._like(signs[:, None] * m._n if left else m._n * signs) for m in mats]


def phi_matrices(p: int, q: int) -> list[RationalMatrix]:
    """The m(m-1)/2 matrices phi_ij = -1/2 (E_ij - E_ji) eta_{p,q} of so(p,q),
    m = p + q, pairs i < j in lexicographic order.  Row i of phi_ij holds
    -nu_j at column j and row j holds nu_i at column i, so all of them are
    written into one int64 array of shape (K, m, m) over D = 2, and each slice
    is already in lowest terms with bound 1: no entry is parsed and no
    Fraction made."""
    signs = np.diag(eta(p, q)._n)  # DimError for a negative p or q
    m = p + q
    i, j = np.triu_indices(m, 1)
    k = np.arange(i.size)
    n = np.zeros((i.size, m, m), dtype=np.int64)
    n[k, i, j], n[k, j, i] = -signs[j], signs[i]
    return [RationalMatrix._raw(x, 2, 1) for x in n]


def eta_pairings(mats, ps) -> list[RationalMatrix]:
    """For each p in ps, the matrix [tr(M_k (M_l)^eta)] of one or more m x m
    matrices M_k, with A^eta = eta A^T eta for eta = eta(p, m - p).  The trace
    is sum_ij nu_i nu_j (M_k)_ij (M_l)_ij, so all of them are one product of
    the stacked vec(M_k), times each sign row vec(nu nu^T), with the stack."""
    ps, m = list(ps), mats[0].rows
    stack = _vec_stack(mats)
    n = stack._n.astype(object) if _nmax(stack) ** 2 * m * m >= _INT64_BOUND else stack._n
    signs = np.array([_eta_signs(p, m - p) for p in ps]).reshape(len(ps), 1, m * m)
    return [RationalMatrix._of(g, stack._d**2) for g in n * signs @ n.T]


def _diagonal(m: RationalMatrix) -> tuple:
    """(N's diagonal, whether N has no nonzero off it) for a square m."""
    diag = m._n.diagonal()
    return diag, bool(np.count_nonzero(m._n) == np.count_nonzero(diag))


def diagonal_entries(m: RationalMatrix) -> tuple[list[Fraction], bool]:
    """The diagonal entries of a square m, and whether m is diagonal: the
    read by which ``signature`` and ``inverse`` take a diagonal matrix."""
    diag, only = _diagonal(m)
    return [Fraction(x, m._d) for x in diag.tolist()], only


# ---------------------------------------------------------------------------
# elimination: every routine below reads a SpanBuilder of N's rows or
# columns, unless the matrix is diagonal


def rref(m: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot column indices: the echelon rows
    num / num[p] of the span of m's rows, padded with zero rows."""
    echelon = sorted(SpanBuilder(m._n)._rows.items())
    rels = [(num, num[p]) for p, (num, _) in echelon] + [({}, 1)] * (m.rows - len(echelon))
    return RationalMatrix.from_relations(rels, m.cols), tuple(p for p, _ in echelon)


def rank(*ms: RationalMatrix) -> int:
    """The rank of the rows of all the matrices, stacked."""
    if len({m.cols for m in ms if m.rows}) > 1:
        raise DimensionMismatchError("stacked rows of different lengths")
    return SpanBuilder(row for m in ms for row in m._n).dim


def kernel_basis(m: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space {v : Mv = 0}; empty iff full column rank.
    Each column in the span of the pivot columns before it gives e_j minus
    its coordinates over them."""
    cols = m._n.T
    span, pivots, free = SpanBuilder(), [], []
    for j, col in enumerate(cols):
        (pivots if span.add(col) else free).append(j)
    basis = []
    for fc in free:  # den e_fc - sum_k num[k] e_pivots[k], over den
        num, den = span.relation(cols[fc])
        v = {fc: den, **{pivots[k]: -x for k, x in num.items()}}
        basis.append(tuple(Fraction(v.get(j, 0), den) for j in range(m.cols)))
    return basis


def solve(a: RationalMatrix, b) -> tuple[Fraction, ...]:
    """Solve Ax = b for square invertible A = N / D: x is D times b's
    coordinates over the columns of N."""
    if not a.is_square():
        raise DimensionMismatchError("solve requires a square matrix")
    bv = [rat(x) for x in b]
    if len(bv) != a.rows:
        raise DimensionMismatchError("right-hand side length mismatch")
    span = SpanBuilder(a._n.T)
    if span.dim != a.cols:
        raise SingularMatrixError("matrix is singular")
    num, den = span.relation(bv)
    return tuple(Fraction(a._d * num.get(j, 0), den) for j in range(a.cols))


def inverse(a: RationalMatrix) -> RationalMatrix:
    """A^{-1} for A = N / D, read off the echelon rows of N's rows.  When N
    is invertible every column is a pivot, so the echelon row of pivot p is
    num[p] e_p = sum_l comb[l] N_l, and row p of A^{-1} = D N^{-1} is
    D comb / num[p].  A diagonal A is read off its diagonal instead: row i of
    A^{-1} is (D / N_ii) e_i."""
    if not a.is_square():
        raise DimensionMismatchError("inverse of non-square matrix")
    n, d = a.rows, a._d
    diag, only = _diagonal(a)
    if only:
        vals = diag.tolist()
        if not all(vals):
            raise SingularMatrixError("matrix is singular")
        return RationalMatrix.from_relations(
            [({i: d if x > 0 else -d}, abs(x)) for i, x in enumerate(vals)], n
        )
    span = SpanBuilder(a._n)
    if span.dim != n:
        raise SingularMatrixError("matrix is singular")
    # 3 x 3 in 91 against 132 us, 1 x 1 in 29 against 41 us with one
    # ``relation`` reduction of D e_j per column after the span was built
    rels = [
        ({l: d * x for l, x in comb.items()}, num[p])
        for p, (num, comb) in sorted(span._rows.items())
    ]
    return RationalMatrix.from_relations(rels, n)


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
    return sorted({e for d in range(1, isqrt(n) + 1) if n % d == 0 for e in (d, n // d)})


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
        den = lcm(*[c.denominator for c in work])
        iw = [int(c * den) for c in work]
        lead, const = iw[0], iw[-1]
        divisors = ((p, q) for p in _divisors(const) for q in _divisors(lead))
        candidates = (sign * Fraction(p, q) for p, q in divisors for sign in (1, -1))
        found = next((x for x in candidates if _poly_eval(work, x) == 0), None)
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

    A diagonal matrix's inertia is the signs of its diagonal.  Any other
    takes fraction-free symmetric elimination on the rows of N, each a dict of
    Python ints.  A remaining row k with a nonzero diagonal entry counts its
    sign, is negated if that is negative, and clears column k from the other
    remaining rows by ``_cancel``, which scales a row only by positive
    factors: so each remaining row stays a positive multiple of its row in
    the Schur complement, and each later diagonal pivot has the right sign.
    When every remaining diagonal entry is zero but some a_ij is not, the
    hyperbolic block [[0, a_ij], [a_ij, 0]] counts as (1, 1): row i clears
    column j, then row j clears column i.  A row that becomes zero is null.
    """
    if not m.is_symmetric():
        raise NotSymmetricError("signature requires a symmetric matrix")
    diag, only = _diagonal(m)
    if only:
        pos, neg = int(np.count_nonzero(diag > 0)), int(np.count_nonzero(diag < 0))
        return pos, neg, m.rows - pos - neg
    rows = {i: {j: x for j, x in enumerate(r) if x} for i, r in enumerate(m._n.tolist())}
    pos = neg = 0
    while rows := {i: r for i, r in rows.items() if r}:
        k = next((i for i, r in rows.items() if i in r), None)
        if k is None:  # a hyperbolic pair; j remains, as only zero rows left
            i = next(iter(rows))
            j = min(rows[i])
            steps, pos, neg = [(i, j), (j, i)], pos + 1, neg + 1
        elif rows[k][k] > 0:
            steps, pos = [(k, k)], pos + 1
        else:
            steps, neg = [(k, k)], neg + 1
        for piv, col in steps:
            pnum = rows.pop(piv)
            if pnum[col] < 0:
                pnum = {c: -x for c, x in pnum.items()}
            for r in rows.values():
                if col in r:
                    _cancel(r, {}, pnum, {}, col)
    return pos, neg, m.rows - pos - neg


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
        return sum((x * y for x, y in zip(u, self.matrix.apply(v))), ZERO)

    def scaled(self, c) -> "SignatureForm":
        return SignatureForm(self.matrix.scale(c))

    def __eq__(self, other) -> bool:
        return isinstance(other, SignatureForm) and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(("SignatureForm", self.matrix))

    def to_json(self) -> dict:
        return jsonify(self)

    def _json_parts(self) -> dict:
        return self.matrix._json_parts()

    @classmethod
    def from_json(cls, obj: dict) -> "SignatureForm":
        return cls(RationalMatrix.from_json(obj))

    @classmethod
    def standard(cls, p: int, q: int) -> "SignatureForm":
        """The form eta(p, q): its inertia (p, q, 0) is known from its
        construction, and it is its own inverse."""
        form = object.__new__(cls)
        form.matrix = form._inv = eta(p, q)
        form.p, form.q, form.nullity = p, q, 0
        return form


# ---------------------------------------------------------------------------
# incremental sparse span: the package's one Gaussian elimination


def _cancel(num: dict, comb: dict, pnum: dict, pcomb: dict, p: int) -> None:
    """Clear num's entry c = num[p] in pivot column p, in place and in
    integers: (num, comb) <- a (num, comb) - b (pnum, pcomb) with g = gcd(P, c),
    a = P / g > 0 and b = c / g, where P = pnum[p] > 0.  A step with a > 1
    then divides the content out of (num, comb)."""
    c = num[p]
    g = gcd(pnum[p], c)
    a, b = pnum[p] // g, c // g
    for d, src in ((num, pnum), (comb, pcomb)):
        if a != 1:
            for i, x in d.items():
                d[i] = a * x
        for i, x in src.items():
            y = d.get(i, 0) - b * x
            if y:
                d[i] = y
            else:
                del d[i]
    if a != 1:
        g = gcd(*num.values(), *comb.values())
        if g > 1:
            for d in (num, comb):
                for i, x in d.items():
                    d[i] = x // g


class SpanBuilder:
    """Reduced row-echelon span of ``vectors``, grown by ``add``, with
    coordinate tracking, fraction-free.

    A vector is a ``RationalMatrix`` (read row-major from its (N, D)), a
    numpy integer row (a row or column of some N, read over denominator 1),
    a coordinate sequence or a dict {index: rational}; zero entries are
    dropped.  Vectors are numbered 0, 1, ... in the order they enlarged the
    span.  Each echelon row is an integer relation num = sum_l comb[l] v_l
    over them, held as two int dicts with num[pivot] > 0: the RREF row is
    num / num[pivot].  A vector under reduction is such a relation too, with
    its own label carrying its denominator, so the elimination runs on
    Python ints; ``coords`` and ``rref`` build Fractions only to answer.
    """

    def __init__(self, vectors=()):
        self._rows: dict[int, tuple[dict, dict]] = {}  # pivot -> (num, comb)
        for v in vectors:
            self.add(v)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _reduce(self, vec) -> tuple[dict, dict]:
        """(num, comb) with num = comb[dim] vec + sum_l comb[l] v_l and num
        zero in every pivot column: each echelon row is zero in the others'
        pivot columns, so each pivot column of vec is cleared once."""
        d = 1
        if isinstance(vec, RationalMatrix):
            vec, d = vec._n.ravel(), vec._d
        if isinstance(vec, np.ndarray):
            # every array here is 1-D; np.flatnonzero would ravel it again
            # (adding an 8-entry row: 5.6 against 8.0 us)
            (idx,) = vec.nonzero()
            num = dict(zip(idx.tolist(), vec[idx].tolist()))
        else:
            items = vec.items() if isinstance(vec, dict) else enumerate(vec)
            pairs = [(i, x) for i, x in ((i, _pair(x)) for i, x in items) if x[0]]
            d = lcm(*(e for _, (_, e) in pairs))
            num = {i: x * (d // e) for i, (x, e) in pairs}
        comb = {self.dim: d}
        for p in num.keys() & self._rows.keys():
            _cancel(num, comb, *self._rows[p], p)
        return num, comb

    def add(self, vec) -> bool:
        """Add a vector; returns True iff it enlarged the span."""
        num, comb = self._reduce(vec)
        if not num:
            return False
        piv = min(num)
        if num[piv] < 0:
            num = {i: -x for i, x in num.items()}
            comb = {lbl: -x for lbl, x in comb.items()}
        # keep full reduced echelon form: clear the new pivot column in the
        # existing rows so every reduction pass terminates with a canonical
        # residual
        for onum, ocomb in self._rows.values():
            if piv in onum:
                _cancel(onum, ocomb, num, comb, piv)
        self._rows[piv] = (num, comb)
        return True

    def contains(self, vec) -> bool:
        v, _ = self._reduce(vec)
        return not v

    def relation(self, vec) -> tuple[dict, int] | None:
        """vec = sum_l num[l] / den v_l as (num, den), or None if outside the span."""
        num, comb = self._reduce(vec)
        if num:
            return None
        den = comb.pop(self.dim)
        return {lbl: -x for lbl, x in comb.items()}, den

    def coords(self, vec) -> dict | None:
        """Coefficients over the added vectors, or None if outside the span."""
        rel = self.relation(vec)
        return None if rel is None else {lbl: Fraction(x, rel[1]) for lbl, x in rel[0].items()}


def _closure(maps, u: RationalMatrix) -> RationalMatrix:
    """The matrix whose rows are a basis of the smallest subspace containing
    the column u that each matrix in maps sends into itself: u, then each A v
    (v kept, breadth first; A in order) that enlarges the span, until it is full."""
    span = SpanBuilder()
    kept = [u] if span.add(u) else []
    for u in kept:  # kept grows while it is read
        for a in maps:
            if span.dim == u.rows:
                break
            image = a * u
            if span.add(image):
                kept.append(image)
    return _vec_stack(kept)


# the Krylov prime P and dim cap: cap products below P**2 sum to less than 2**63
_KRYLOV_PRIME, _KRYLOV_DIM_CAP = 67_108_859, 2047


def closure_is_full(maps, us: RationalMatrix) -> list[bool]:
    """For each column u of us, True when a rank test mod P (at dims up to
    the cap) proves ``_closure(maps, u)`` the whole space; False proves
    nothing.  The numerators N_a = D_a A_a keep u's closure, and so does
    Y = Z_1 + Z_2 Z_3 for fixed integer sums Z_i of them (an ad_x alone has a
    kernel of dim rank L or more: no full Krylov space once rank L > 1).  So
    each Y^j N_u, j < dim, is an integer vector of the closure, reduced mod P
    here, and a nonzero determinant of them mod P is a nonzero integer one."""
    dim, p = us.rows, _KRYLOV_PRIME
    if not us.cols or dim > _KRYLOV_DIM_CAP:
        return [False] * us.cols
    ns = np.array([m._n % p for m in maps], dtype=np.int64).reshape(len(maps), dim * dim)
    mix = np.arange(3 * len(maps), dtype=np.int64).reshape(3, -1) ** 2 % 11 + 1
    z1, z2, z3 = (mix @ ns % p).reshape(3, dim, dim)
    y = (z1 + z2 @ z3) % p
    v, krylov = (us._n % p).astype(np.int64), np.empty((us.cols, dim, dim), dtype=np.int64)
    for j in range(dim):
        krylov[:, j], v = v.T, y @ v % p
    full, trials = np.ones(us.cols, dtype=bool), np.arange(us.cols)
    for c in range(dim):  # fraction-free: row <- pivot * row - row[c] * pivot row
        piv = (krylov[:, c:, c] != 0).argmax(axis=1) + c
        row = krylov[trials, piv]
        full &= row[:, c] != 0
        krylov[trials, piv] = krylov[trials, c]
        rest = krylov[:, c + 1 :, c:]
        rest[...] = (row[:, c, None, None] * rest - rest[:, :, :1] * row[:, None, c:]) % p
    return full.tolist()


# ---------------------------------------------------------------------------
# matrix subspaces


class MatrixSubspace:
    """A subspace of ambient_dim x ambient_dim matrices with an independent
    basis, grown only by ``adjoin``; dependent generator lists are rejected.

    The basis is independent by construction: the constructor eliminates it,
    and ``mapped`` hands it on through a map that is one-to-one on the
    subspace.  The echelon of the basis that answers ``contains``,
    ``relation``, ``coords`` and ``equals`` is built on their first call.
    ``mapped`` does not check that the map is one-to-one: handed dependent
    images, it returns a subspace with a dependent basis, and what that
    subspace answers is undefined.  Its supported callers are these four,
    each with its one-to-one argument:

    - ``standardform.eta_twist``: X -> eta X and X -> X eta, eta invertible;
    - ``standardform._standard_targets``: the left twist C -> eta C of an
      algebra's structure span, and C'_k = -sum_l (G^{-1})_kl C^l on it, an
      invertible recombination for the non-degenerate trace Gram G;
    - ``standardform.gl_action``: Z -> A Z A^eta, A rank-checked invertible,
      so is A^eta = eta A^T eta;
    - ``nilpotent.algebra_from_J``: C_k = sum_l (G_Z^{-1})_kl (-G_V J_l) on
      W = span{J_l}, handed in or a J list's one elimination: an invertible
      recombination of the images of J -> -G_V J, both forms non-degenerate.

    Any other caller makes a subspace with the constructor, which eliminates.
    """

    __slots__ = ("ambient_dim", "basis", "_span")

    def __init__(self, ambient_dim: int, basis=()):
        self.ambient_dim, self.basis, self._span = ambient_dim, (), SpanBuilder()
        enlarged = [self.adjoin(m) for m in basis]
        if not all(enlarged):
            raise DependentBasisError("generator list is linearly dependent")

    def mapped(self, images) -> "MatrixSubspace":
        """The span of ``images``, the images of the basis under a linear map
        of the ambient space that is one-to-one on this subspace (or an
        invertible recombination of such images): independent because the
        basis is, so nothing is eliminated here.  Only the count and shape of
        the images are checked; dependent images are undefined behaviour
        (see the class docstring for the supported callers)."""
        images = tuple(images)
        if len(images) != self.dim:
            raise DimensionMismatchError(f"{len(images)} images of a {self.dim}-dim basis")
        if any(m.rows != self.ambient_dim or m.cols != self.ambient_dim for m in images):
            raise DimensionMismatchError(f"an image is not {self.ambient_dim}x{self.ambient_dim}")
        out = object.__new__(MatrixSubspace)
        out.ambient_dim, out.basis, out._span = self.ambient_dim, images, None
        return out

    def _echelon(self) -> SpanBuilder:
        if self._span is None:
            self._span = SpanBuilder(self.basis)
        return self._span

    def adjoin(self, m: RationalMatrix) -> bool:
        """Append m to the basis iff it lies outside the subspace; returns
        whether it did.  Only for building: never extend a held subspace."""
        if m.rows != self.ambient_dim or m.cols != self.ambient_dim:
            raise DimensionMismatchError(
                f"basis matrix is {m.rows}x{m.cols}, ambient is {self.ambient_dim}"
            )
        if not self._echelon().add(m):
            return False
        self.basis += (m,)
        return True

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, m: RationalMatrix) -> bool:
        if m.rows != self.ambient_dim or m.cols != self.ambient_dim:
            return False
        return self._echelon().contains(m)

    def relation(self, m: RationalMatrix) -> tuple[dict, int] | None:
        """m = sum_l num[l] / den basis[l] as (num, den), or None if m is outside."""
        if m.rows != self.ambient_dim or m.cols != self.ambient_dim:
            return None
        return self._echelon().relation(m)

    def coords(self, m: RationalMatrix) -> tuple[Fraction, ...] | None:
        """Coefficients of m over the basis, or None if m is outside."""
        rel = self.relation(m)
        if rel is None:
            return None
        return tuple(Fraction(rel[0].get(lbl, 0), rel[1]) for lbl in range(self.dim))

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
        return jsonify(self)

    def _json_parts(self) -> dict:
        return {"ambient": self.ambient_dim, "basis": StackText(self.basis, objects=True)}

    @classmethod
    def from_json(cls, obj: dict) -> "MatrixSubspace":
        try:
            ambient, basis = obj["ambient"], obj["basis"]
            if type(ambient) is not int or ambient < 0:
                raise BadInputError(f"ambient must be a non-negative integer, not {ambient!r}")
            if type(basis) is not list:
                raise BadInputError(f"basis must be a list, not {basis!r}")
            return cls(ambient, [RationalMatrix.from_json(b) for b in basis])
        except (KeyError, TypeError) as exc:
            raise BadInputError(f"bad subspace object: {exc}") from exc


def independent_subset(ambient_dim: int, mats) -> MatrixSubspace:
    """Span of an arbitrary matrix list as a subspace: its basis is the
    matrices that enlarge the span, in order."""
    s = MatrixSubspace(ambient_dim)
    for m in mats:
        s.adjoin(m)
    return s


def _vec_stack(mats) -> RationalMatrix:
    """The matrix whose row l is vec(M_l), the entries of M_l row-major, over
    the least common denominator (so in lowest terms), with its bound read
    from the parts; 0 x 0 for no matrices."""
    if not mats:
        return RationalMatrix.zeros(0, 0)
    # one np.array of the numerators, terms of factor 1 as they are: three
    # 6 x 6 matrices in 14 (one D) or 19 us (D in 1, 2, 3) against 25 us with
    # an astype, a x1 and a ravel per term before np.stack
    d, ns = _over_lcd([((1, 1), m) for m in mats], max)
    n = np.array(ns).reshape(len(ns), mats[0].rows * mats[0].cols)
    return RationalMatrix._raw(n, d, max(d // m._d * _nmax(m) for m in mats))


def lin_combs(a: RationalMatrix, mats, dim: int) -> list[RationalMatrix]:
    """The dim x dim matrices sum_l A_kl M_l, one for each row k of A (none
    when A has no rows, as a matrix with no rows is 0 x 0): one product of A
    with the stacked vec(M_l)."""
    mats = list(mats)
    if any(m.rows != dim or m.cols != dim for m in mats):
        raise DimensionMismatchError(f"a term of a {dim}x{dim} sum has another shape")
    if a.rows and a.cols != len(mats):
        raise DimensionMismatchError(f"{a.cols} coefficients for {len(mats)} matrices")
    if not (a.rows and mats and dim):
        return [RationalMatrix.zeros(dim, dim)] * a.rows
    return _stack_combs(a, _vec_stack(mats), dim)


def skew_combs(a: RationalMatrix, g: RationalMatrix, js, dim: int) -> list[RationalMatrix] | None:
    """The dim x dim matrices sum_l A_kl (-G J_l), one for each row k of A, for
    dim x dim G and J_l; None when some G J_l is not antisymmetric.  All G J_l
    are one product of G with the J_l side by side (a gather when G is
    monomial), read as a stack for the skew test and the product with A."""
    js = list(js)
    if not (a.rows and js and dim):
        return [RationalMatrix.zeros(dim, dim)] * a.rows
    d, ns = _over_lcd([((1, 1), j) for j in js], max)
    side = RationalMatrix._raw(np.concatenate(ns, axis=1), d)
    gj = _product_numerators(g, side, False).reshape(dim, len(js), dim).swapaxes(0, 1)
    if not (gj == -gj.swapaxes(1, 2)).all():
        return None
    return _stack_combs(a, RationalMatrix._raw(-gj.reshape(len(js), dim * dim), g._d * d), dim)


def _stack_combs(a: RationalMatrix, stack: RationalMatrix, dim: int) -> list[RationalMatrix]:
    """The dim x dim matrices whose entries are row k of A times the stacked
    vec(M_l), one for each row k, in lowest terms."""
    prod, d = _product_numerators(a, stack, False), a._d * stack._d
    # every output's content in one pass over the product's rows
    contents = np.gcd.reduce(prod, axis=1).tolist()
    return [RationalMatrix._of(n.reshape(dim, dim), d, c) for n, c in zip(prod, contents)]


def _combs_each(coeffs, mats, dim: int) -> list[list[RationalMatrix]]:
    """``lin_combs(A, M, dim)`` for each coefficient matrix A of ``coeffs``,
    with M the list of ``mats`` at A's index, or its one list for every A:
    all the M are stacked once, over their least common denominator."""
    stack = _vec_stack([m for ms in mats for m in ms])
    parts = [stack._like(n) for n in np.split(stack._n, len(mats) or 1)]
    return [_stack_combs(a, parts[i % len(parts)], dim) for i, a in enumerate(coeffs)]


def _twist_laws(twists, ps, m: int) -> bool:
    """Whether, for twists[i] a list of left twists D = eta X of m x m
    matrices X with eta = eta(p, m - p) for p = ps[i], every D lies in
    so(p, m - p), eta D^T eta = -D, and every eta D, the form eta times D as a
    J-map, is antisymmetric: both laws read off the numerators of all the
    twists, stacked once."""
    if not twists:
        return True
    n = np.array([[x._n for x in ds] for ds in twists])
    signs = np.array([np.diag(eta(p, m - p)._n) for p in ps])[:, None, :, None]
    flipped = signs * n  # eta D: row i of D times nu_i
    in_so = flipped.swapaxes(2, 3) * signs == -n  # (eta D^T eta)_ij = nu_i nu_j D_ji
    return bool(in_so.all() and (flipped == -flipped.swapaxes(2, 3)).all())


def lin_comb(coeffs, mats, dim: int) -> RationalMatrix:
    """sum_i c_i M_i, the one row of ``lin_combs``: as many c_i as M_i."""
    return lin_combs(RationalMatrix([coeffs]), mats, dim)[0]


def block_diag(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """The block-diagonal matrix diag(A, B)."""
    d, (na, nb) = _over_lcd([((1, 1), a), ((1, 1), b)], max)
    n = np.zeros((a.rows + b.rows, a.cols + b.cols), na.dtype)
    n[: a.rows, : a.cols], n[a.rows :, a.cols :] = na, nb
    return RationalMatrix._of(n, d)


def trace_pairing(xs, ys) -> RationalMatrix:
    """The matrix [tr(X_a Y_b)] for r x c matrices X_a and c x r matrices Y_b.

    tr(XY) = sum_ij X_ij Y_ji, so this is one product of the stacked
    row-major vec(X_a) with the stacked vec(Y_b^T) as columns."""
    same, xs = ys is xs, list(xs)
    ys = xs if same else list(ys)
    if not (xs and ys):
        return RationalMatrix.zeros(len(xs), len(ys))
    r, c = xs[0].rows, xs[0].cols
    if any(x.rows != r or x.cols != c for x in xs) or any(
        y.rows != c or y.cols != r for y in ys
    ):
        raise DimensionMismatchError("trace pairing needs r x c against c x r matrices")
    if not c:
        return RationalMatrix.zeros(len(xs), len(ys))
    sx = _vec_stack(xs)
    sy = sx if same else _vec_stack(ys)  # each side stacked once
    # row (i, j) of the right factor holds (Y_b)_ji for every b: the transposed
    # view of a C-contiguous stack of the vec(Y_b^T), as numpy's int64 matmul
    # (no BLAS) runs 3-4x slower on a C-contiguous right factor
    right = sy._n.reshape(len(ys), c, r).swapaxes(1, 2).reshape(len(ys), r * c).T
    return _matmul(sx, sy._like(right))


def trace_gram(s: MatrixSubspace) -> RationalMatrix:
    """Gram matrix of the trace form <X, Y> = -tr(XY) on the basis of s."""
    return -trace_pairing(s.basis, s.basis)


def polarized_match(xs, ys, t: RationalMatrix, coeffs, den: int) -> list[list[bool]]:
    """[[X_k Y_l + X_l Y_k == (coeffs[k][l] / den) T]] for square X_k, Y_l, T of
    one size, int coefficients and den > 0, both sides as integer arrays over
    lcm(D_X D_Y, den D_T), D_X and D_Y the lcms of the X's and Y's denominators.

    When every X_k, Y_l and T is monomial (``_monomial``), no product is
    formed.  Row i of X_k Y_l is one nonzero, x_ki y_lj at column cy_lj for
    j = cx_ki, and row i of c T is c t_i at column ct_i.  So row i of the sum
    equals row i of c T exactly when both products hit the same column, the
    values add to c t_i, and that column is ct_i; when c = 0 the row must be
    zero: the same column, and values that cancel.  Otherwise all the X_k Y_l
    are one batched matmul of the stacked numerators, on Python ints when
    the bound reaches 2**62."""
    xs, ys, n, dim = list(xs), list(ys), len(coeffs), t.rows
    if not len(xs) == len(ys) == n or any(m.rows != dim or m.cols != dim for m in (*xs, *ys, t)):
        raise DimensionMismatchError(f"{len(xs)} X and {len(ys)} Y of another shape than T")
    if not n:
        return []
    mats, dy = (*xs, *ys, t), lcm(*(m._d for m in ys))
    big = lcm(lcm(*(m._d for m in xs)) * dy, den * t._d)
    scales = [big // (dy * m._d) for m in xs] + [dy // m._d for m in ys] + [big // (den * t._d)]
    bounds = [s * max(_nmax(m), 1) for m, s in zip(mats, scales)]
    monos = [_monomial(m) for m in mats]
    index = all(p is not None for p in monos)
    bc = max(1, *(abs(x) for r in coeffs for x in r))
    bound = max(2 * max(bounds[:n]) * max(bounds[n:-1]) * (1 if index else dim), bc * bounds[-1])
    dtype = object if bound >= _INT64_BOUND else np.int64
    c = np.array(coeffs, dtype=dtype).reshape(n, n)
    if index:
        cols = np.array([p[0] for p in monos])
        vals = np.array([p[1].astype(dtype) * s for p, s in zip(monos, scales)])
        (cx, cy, ct), (vx, vy, vt) = ((a[:n], a[n:-1], a[-1]) for a in (cols, vals))
        col = cy[:, cx].swapaxes(0, 1)  # col[k, l, i]: the column of row i of X_k Y_l
        val = vx[:, None] * vy[:, cx].swapaxes(0, 1)
        same = col == col.swapaxes(0, 1)
        sums = val + val.swapaxes(0, 1) == c[:, :, None] * vt
        return (same & sums & ((col == ct) | (c == 0)[:, :, None])).all(axis=2).tolist()
    stack = np.array([m._n.astype(dtype) * s for m, s in zip(mats, scales)])
    prods = np.matmul(stack[:n, None], stack[None, n:-1])
    sums = prods + prods.swapaxes(0, 1) == c[:, :, None, None] * stack[-1]
    return sums.all(axis=(2, 3)).tolist()
