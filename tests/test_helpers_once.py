"""Each shared test helper is written once, in ``tests/helpers.py``.

No two files under ``tests/`` may define a module-level function, other than
a ``test_*`` function, with the same name and the same body (docstrings
left out of the comparison); such a helper belongs in ``helpers.py``.
"""

import ast
from collections import defaultdict
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _body(node: ast.FunctionDef) -> str:
    """The function's body without its docstring, as an AST dump."""
    body = node.body
    first = body[0]
    if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
        if isinstance(first.value.value, str):
            body = body[1:]
    return ast.dump(ast.Module(body=body, type_ignores=[]))


def duplicated_helpers(paths) -> dict:
    """{name: files} for each (name, body) that more than one file defines."""
    files = defaultdict(list)
    for path in paths:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("test_"):
                files[node.name, _body(node)].append(path.name)
    return {name: found for (name, _), found in files.items() if len(found) > 1}


def test_no_helper_is_defined_twice():
    assert duplicated_helpers(sorted(TESTS.glob("*.py"))) == {}


def test_a_copied_helper_is_found(tmp_path):
    one = 'def _unit(n, k):\n    """One copy."""\n    return [int(i == k) for i in range(n)]\n'
    other = "def _unit(n, k):\n    return [int(i == k) for i in range(n)]\n"
    changed = "def _unit(n, k):\n    return [int(i != k) for i in range(n)]\n"
    tests = "def test_a():\n    pass\n"
    for name, text in (("a.py", one + tests), ("b.py", other + tests), ("c.py", changed)):
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert duplicated_helpers(sorted(tmp_path.glob("*.py"))) == {"_unit": ["a.py", "b.py"]}
