"""Source-level invariants of the package."""

import ast
from pathlib import Path

import nilforge

SRC = Path(nilforge.__file__).parent


def test_no_assert_statements():
    # python -O strips assert, so no invariant may rest on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_imports_inside_functions():
    # every dependency of a module shows in its header
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert found == []


def test_span_engine_stays_in_exactlin():
    # exactlin's SpanBuilder is the one row reduction; other modules reach it
    # through MatrixSubspace and the elimination routines
    engine = {"SpanBuilder", "matrix_to_sparse"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "exactlin.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if getattr(node, "id", None) in engine
        or getattr(node, "attr", None) in engine
        or (isinstance(node, ast.alias) and node.name in engine)
    ]
    assert found == []


def test_numpy_stays_in_exactlin():
    # the integer representation of a matrix lives behind exactlin alone
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "exactlin.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy")
    ]
    assert found == []


def test_no_unused_imports():
    # no linter ships with the package; a module-level import that no name in
    # the module refers to is dead (``__init__`` re-exports are its purpose)
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
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
    assert found == []


def test_one_pretty_printer():
    # cli.canonical_json is the one writer of indented JSON; json's own indent
    # encoder is pure Python and slow, and a second writer could drift from it
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("dump", "dumps")
        and any(k.arg in ("indent", None) for k in node.keywords)  # None: a **mapping
    ]
    assert found == []


def test_rows_become_matrices_only_in_exactlin():
    # exactlin.lin_combs turns coefficient rows into matrices in one product;
    # a lin_comb or .element( call per row or per vector, in a for loop or a
    # comprehension, is the per-row idiom it replaces
    loops = (ast.For, ast.AsyncFor, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    found = sorted({
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "exactlin.py"
        for loop in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(loop, loops)
        for node in ast.walk(loop)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "lin_comb"
             or getattr(node.func, "attr", None) in ("lin_comb", "element"))
    })
    assert found == []
