"""Each distinct entry literal is parsed once.

``exactlin._rat_pair`` is a pure map from text to a reduced (n, d), so it is
memoized in a bounded cache; a rejected literal is never cached and raises
``BadInputError`` on every call.
"""

import pytest

from nilforge import exactlin
from nilforge.errors import BadInputError
from nilforge.exactlin import RationalMatrix, _int_form, _rat_pair


@pytest.mark.parametrize("bad", ["1/0", "x", " 1", "1_0", "٣", "0/00"])
def test_a_bad_literal_raises_on_every_call(bad):
    for _ in range(2):
        with pytest.raises(BadInputError):
            _rat_pair(bad)
        with pytest.raises(BadInputError):
            RationalMatrix([[bad]])


def test_literals_enter_reduced_and_repeat_from_the_cache():
    for _ in range(2):
        assert _rat_pair("2/4") == (1, 2)
        assert _rat_pair("-6/4") == (-3, 2)
        assert _rat_pair("+0/7") == (0, 1)
    m = RationalMatrix([["2/4", "1/3"], ["-6/4", "0"]])
    n, d = _int_form(m)
    assert (n.tolist(), d) == ([[3, 2], [-9, 0]], 6)
    before = _rat_pair.cache_info().hits
    RationalMatrix([["2/4", "2/4", "2/4"]])
    assert _rat_pair.cache_info().hits >= before + 3


def test_the_cache_is_bounded():
    size = _rat_pair.cache_info().maxsize
    assert size is not None and 0 < size <= 2**16
    for k in range(size + 100):
        assert exactlin._rat_pair(f"{k}/{2 * k + 1}") == (k, 2 * k + 1)
    assert _rat_pair.cache_info().currsize <= size
