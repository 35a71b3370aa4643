"""Test files import only what they use.

The scan of ``tests/test_source.py::test_no_unused_imports``, which covers
the package, run over every Python file under ``tests/``: a module-level
import that no name in the file refers to is dead.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def unused_imports(paths) -> list[str]:
    """"file:line name" for each module-level import that no name in its file reads."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name not in used]
    return found


def test_no_test_file_imports_a_name_it_never_uses():
    assert unused_imports(sorted(TESTS.glob("*.py"))) == []


def test_an_unused_import_is_found(tmp_path):
    path = tmp_path / "a.py"
    path.write_text("import os\nfrom math import gcd, lcm\n\nprint(gcd(4, 6))\n", encoding="utf-8")
    assert unused_imports([path]) == ["a.py:1 os", "a.py:2 lcm"]
