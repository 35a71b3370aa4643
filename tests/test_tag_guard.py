"""No exception decides an algebra's tag.

``NilpotentAlgebra2.tagged`` and ``algebra_from_J`` decide adapted or raw
from one elimination or a handed-on span.  Catching ``DependentBasisError``
to retag would raise inside a traced constructor, so no code under src/ may
catch it, and no ``except`` body may build an algebra or pass a ``tag``.
"""

import ast
from pathlib import Path

import nilforge

SRC = Path(nilforge.__file__).parent


def _names(node):
    """The bare names an except clause's type expression mentions."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _retags(tree: ast.AST):
    """(line, reason) of each except clause that catches DependentBasisError,
    or whose body builds a NilpotentAlgebra2 or passes a ``tag`` keyword."""
    found = []
    for handler in ast.walk(tree):
        if not isinstance(handler, ast.ExceptHandler):
            continue
        if handler.type is not None and "DependentBasisError" in _names(handler.type):
            found.append((handler.lineno, "catches DependentBasisError"))
        for node in (n for stmt in handler.body for n in ast.walk(stmt)):
            if isinstance(node, ast.Call) and (
                "NilpotentAlgebra2" in _names(node.func)
                or "tagged" in _names(node.func)
                or any(k.arg == "tag" for k in node.keywords)
            ):
                found.append((node.lineno, "builds an algebra"))
    return found


def test_no_except_under_src_decides_a_tag():
    found = {
        (path.name, line, why)
        for path in sorted(SRC.rglob("*.py"))
        for line, why in _retags(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == set()


def test_the_guard_sees_each_form_of_a_retag():
    text = (
        "try:\n    f()\nexcept DependentBasisError:\n    pass\n"
        "try:\n    f()\nexcept (KeyError, errors.DependentBasisError):\n    pass\n"
        "try:\n    f()\nexcept ValueError:\n    NilpotentAlgebra2.tagged(m=1)\n"
        "try:\n    f()\nexcept Exception:\n    g(tag='raw')\n"
        "try:\n    f()\nexcept KeyError:\n    pass\n"
    )
    assert _retags(ast.parse(text)) == [
        (3, "catches DependentBasisError"),
        (7, "catches DependentBasisError"),
        (12, "builds an algebra"),
        (16, "builds an algebra"),
    ]
