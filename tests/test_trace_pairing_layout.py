"""``trace_pairing`` hands the product kernel an F-contiguous right factor.

numpy's int64 matmul has no BLAS, and it ran 2.8-3.9x slower on a
C-contiguous (r c) x K right factor than on the transposed view of a
C-contiguous K x (r c) stack: ``trace_gram`` on so(20,20) took 2.3 s
against 0.6 s.  The values are checked in ``test_stacked_reduce``.
"""

from nilforge import exactlin
from nilforge.exactlin import trace_gram
from nilforge.standardform import so_basis


def test_the_right_factor_is_f_contiguous(monkeypatch):
    seen = []
    real = exactlin._times

    def times(na, ma, nb):
        seen.append((nb.shape, nb.flags["F_CONTIGUOUS"], ma))
        return real(na, ma, nb)

    monkeypatch.setattr(exactlin, "_times", times)
    trace_gram(so_basis(3, 2))
    assert seen == [((25, 10), True, None)]
