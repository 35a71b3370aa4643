"""The integer form (N, D) of a matrix stays behind ``exactlin``.

The stacked helpers work on the numerators of many matrices at once; no
other module reads a matrix's private fields, so none depends on how a
matrix is stored.
"""

import ast
from pathlib import Path

import nilforge

SRC = Path(nilforge.__file__).parent
PRIVATE = {"_n", "_d", "_max", "_mono", "_like", "_store", "_raw", "_of"}


def test_no_private_matrix_field_is_read_outside_exactlin():
    found = [
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "exactlin.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE
    ]
    assert found == []
