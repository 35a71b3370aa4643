"""``tests/code_lines.py`` counts lines and code lines the same way for
every module: blank, comment-only and docstring lines are not code."""

import subprocess
import sys
from pathlib import Path

from code_lines import PACKAGE, counts

SAMPLE = '''"""A module docstring
on two lines."""

import os  # a comment after code is code

# a comment alone


class Thing:
    """A class docstring."""

    size = 1

    def method(self):
        """A method docstring,

        with a blank line inside."""
        text = """a string that is
not a docstring"""
        return text


def function():
    x = 1
    "a string statement after the first is code"
    return x
'''


def test_sample_module_counts():
    # 26 lines; code: import, class, size, def, text (2 lines), return,
    # def, x, the late string, return
    assert counts(SAMPLE) == (26, 11)


def test_a_module_of_docstring_and_comments_has_no_code():
    assert counts('"""Only a docstring."""\n\n# and a comment\n') == (3, 0)
    assert counts("") == (0, 0)


def test_the_script_prints_every_module_and_the_totals():
    out = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("code_lines.py"))],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    modules = sorted(path.name for path in PACKAGE.glob("*.py"))
    assert [line.split()[0] for line in out[1:-1]] == modules
    rows = [line.split() for line in out[1:-1]]
    total = out[-1].split()
    assert total[0] == "total"
    assert [int(total[1]), int(total[2])] == [
        sum(int(row[1]) for row in rows),
        sum(int(row[2]) for row in rows),
    ]
