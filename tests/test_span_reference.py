"""The fraction-free ``SpanBuilder`` against ``RefSpanBuilder``, the same
incremental reduced echelon span kept over ``Fraction`` dicts: the same add
verdicts, dimensions, coordinates, membership and rref, on int64 and
Python-int numerators, mixed denominators, negative pivots, "a/b" strings
and sparse dicts."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from nilforge.exactlin import RationalMatrix, SpanBuilder, matrix_to_sparse, rat, rat_to_str, rref

PROPS = settings(max_examples=80, deadline=None, derandomize=True)
ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# the reference: the elimination over Fraction dicts


def _axpy(dst: dict, c: Fraction, src: dict) -> None:
    """dst += c * src on sparse dicts, dropping the entries that cancel."""
    for i, x in src.items():
        y = dst.get(i, ZERO) + c * x
        if y:
            dst[i] = y
        else:
            dst.pop(i, None)


def _sparse(vec) -> dict:
    """A fresh sparse dict of a RationalMatrix (row-major), of a sparse dict
    or of a coordinate sequence."""
    if isinstance(vec, RationalMatrix):
        return matrix_to_sparse(vec)
    if isinstance(vec, dict):
        return dict(vec)
    return {i: x for i, x in enumerate(map(rat, vec)) if x}


class RefSpanBuilder:
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


def _dense(sparse: dict, n: int) -> tuple[Fraction, ...]:
    return tuple(sparse.get(i, ZERO) for i in range(n))


def ref_rref(m: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot column indices: the echelon rows
    of the span of m's rows, padded with zero rows."""
    echelon = RefSpanBuilder(m.row(i) for i in range(m.rows))._rows
    rows = [_dense(row, m.cols) for _, row, _ in echelon]
    rows += [(ZERO,) * m.cols] * (m.rows - len(rows))
    return RationalMatrix(rows), tuple(piv for piv, _, _ in echelon)


# ---------------------------------------------------------------------------
# inputs

# numerators: small ones of both signs, and ones past 2**62 that force
# Python-int (object dtype) matrices
numerators = st.one_of(
    st.integers(-9, 9),
    st.integers(-9, 9),
    st.integers(2**62, 2**66).flatmap(lambda x: st.sampled_from([x, -x])),
)
rationals = st.builds(Fraction, numerators, st.sampled_from([1, 1, 2, 3, 4, 6, 7]))


@st.composite
def vector_lists(draw):
    """(rows, cols, vectors): vectors of length rows * cols as Fraction
    tuples, some of them rational combinations of earlier ones."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    length = rows * cols
    vecs = []
    for _ in range(draw(st.integers(0, 7))):
        if vecs and draw(st.booleans()):
            coeffs = draw(st.lists(rationals, min_size=len(vecs), max_size=len(vecs)))
            vecs.append(
                tuple(sum((c * v[i] for c, v in zip(coeffs, vecs)), ZERO) for i in range(length))
            )
        else:
            vecs.append(tuple(draw(st.lists(rationals, min_size=length, max_size=length))))
    return rows, cols, vecs


def _forms(vec, rows, cols):
    """One vector as a matrix, a Fraction sequence, an "a/b" string sequence
    and a sparse dict of its nonzero entries."""
    m = RationalMatrix([vec[r * cols : (r + 1) * cols] for r in range(rows)])
    return (m, list(vec), [rat_to_str(x) for x in vec], {i: x for i, x in enumerate(vec) if x})


@PROPS
@given(vector_lists(), st.data())
def test_span_builder_matches_reference(case, data):
    rows, cols, vecs = case
    span, ref = SpanBuilder(), RefSpanBuilder()
    for vec in vecs:
        form = data.draw(st.sampled_from(_forms(vec, rows, cols)))
        assert span.add(form) == ref.add(form)
        assert span.dim == ref.dim
    probe = tuple(data.draw(st.lists(rationals, min_size=rows * cols, max_size=rows * cols)))
    for vec in vecs + [probe, (ZERO,) * (rows * cols)]:
        for form in _forms(vec, rows, cols):
            assert span.coords(form) == ref.coords(form)
            assert span.contains(form) == ref.contains(form)
    if vecs:
        m = RationalMatrix(vecs)
        assert rref(m) == ref_rref(m)


@PROPS
@given(vector_lists())
def test_echelon_rows_hold_only_ints(case):
    # the elimination stays fraction-free: every stored echelon value, and
    # every pivot, is a Python int, and each pivot entry is positive
    rows, cols, vecs = case
    span = SpanBuilder()
    for i, vec in enumerate(vecs):
        span.add(_forms(vec, rows, cols)[i % 4])
    for piv, (num, comb) in span._rows.items():
        assert type(piv) is int and num[piv] > 0
        assert all(type(k) is int and type(x) is int for d in (num, comb) for k, x in d.items())
