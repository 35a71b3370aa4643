"""Every ``MatrixSubspace`` basis is independent by construction.

The constructor eliminates its basis; only ``MatrixSubspace.mapped``, which
hands a basis on through a one-to-one map, may make a subspace without an
elimination.  So no other code under src/ may call ``object.__new__`` on the
class or reach ``MatrixSubspace.__new__``.
"""

import ast
from pathlib import Path

import nilforge

SRC = Path(nilforge.__file__).parent


def _bypasses(tree: ast.AST):
    """(function qualname, line) of each object.__new__(MatrixSubspace) and
    each MatrixSubspace.__new__ in tree."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Attribute) and node.attr == "__new__":
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id == "MatrixSubspace":
                found.append((".".join(scope), node.lineno))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if (
                func.attr == "__new__"
                and isinstance(func.value, ast.Name)
                and func.value.id == "object"
                and any(isinstance(a, ast.Name) and a.id == "MatrixSubspace" for a in node.args)
            ):
                found.append((".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_only_mapped_makes_a_subspace_without_elimination():
    found = {
        (path.name, where)
        for path in sorted(SRC.rglob("*.py"))
        for where, _ in _bypasses(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {("exactlin.py", "MatrixSubspace.mapped")}


def test_the_guard_sees_each_form_of_the_bypass():
    text = (
        "def f():\n    return object.__new__(MatrixSubspace)\n"
        "class K:\n    def g(self):\n        return MatrixSubspace.__new__(MatrixSubspace)\n"
        "h = MatrixSubspace.__new__\n"
        "def fine():\n    return object.__new__(RationalMatrix)\n"
    )
    assert _bypasses(ast.parse(text)) == [("f", 2), ("K.g", 5), ("", 6)]
