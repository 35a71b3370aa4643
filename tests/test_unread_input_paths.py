"""Input paths that no other test executes: a file the CLI cannot open, a
metric algebra with no center form, a scalar on the left of a matrix and an
``int`` subclass at the rational intake."""

import json
from dataclasses import replace

import pytest

from nilforge.catalog import n20
from nilforge.cli import main
from nilforge.errors import DegenerateFormError
from nilforge.exactlin import RationalMatrix, _pair
from nilforge.nilpotent import MetricAlgebra


@pytest.mark.parametrize("verb, target", [("reduce", "missing.json"), ("lattice", ".")])
def test_an_unreadable_file_is_bad_input(verb, target, tmp_path, capsys):
    # a missing file and a directory both raise OSError inside open()
    code = main([verb, str(tmp_path / target)])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["error"] == "ERR_BAD_INPUT"
    assert "cannot read" in out["detail"]


def test_a_metric_algebra_needs_a_center_form():
    algebra = replace(n20().algebra, form_Z=None)
    with pytest.raises(DegenerateFormError):
        MetricAlgebra(algebra)


def test_a_scalar_multiplies_from_the_left():
    m = RationalMatrix([[1, -2], ["1/3", 0]])
    assert 2 * m == m.scale(2)


class Count(int):
    pass


def test_an_int_subclass_is_read_as_an_integer():
    n, d = _pair(Count(7))
    assert (n, d) == (7, 1) and type(n) is int
