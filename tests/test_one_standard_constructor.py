"""Every standard algebra R^{p,q} (+) W comes from one constructor.

``standardform._standard`` is the one place that builds a
``StandardPseudoMetricAlgebra``: ``standard_algebra`` (the ``free`` verb
and ``lattice --pseudo-h``) and the reductions of ``reduce`` both reach it,
once for each standard algebra they build.
"""

import ast
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

from nilforge import cli, standardform
from nilforge.catalog import n11

SRC = Path(__file__).resolve().parent.parent / "src" / "nilforge"


def _calls(name: str) -> list[tuple[Path, int]]:
    """(file, line) of each call of ``name`` by its bare name under the package."""
    return [
        (path, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
    ]


def test_one_site_builds_a_standard_algebra():
    [(path, line)] = _calls("StandardPseudoMetricAlgebra")
    owners = [
        node.name
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and node.lineno <= line <= node.end_lineno
    ]
    assert (path.name, owners) == ("standardform.py", ["_standard"])


def _counted_run(monkeypatch, argv) -> tuple[list, str]:
    """The (p, q) of each ``_standard`` call while the CLI runs ``argv``,
    with the memoized free algebras cleared first, and the printed text."""
    real, calls = standardform._standard, []

    def counted(p, q, w, form):
        calls.append((p, q))
        return real(p, q, w, form)

    monkeypatch.setattr(standardform, "_standard", counted)
    standardform.free_algebra.cache_clear()
    with redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0
    monkeypatch.undo()
    standardform.free_algebra.cache_clear()
    return calls, out.getvalue()


def test_free_builds_its_two_free_algebras_once_each(monkeypatch):
    # F_2(3, 2) for the verb, F_2(5, 0) as the source of its isomorphism
    calls, _ = _counted_run(monkeypatch, ["free", "3", "2"])
    assert sorted(calls) == [(3, 2), (5, 0)]


def test_lattice_pseudo_h_builds_one_standard_algebra(monkeypatch):
    calls, text = _counted_run(monkeypatch, ["lattice", "--pseudo-h", "2", "1"])
    report = json.loads(text)
    assert report["standard_iso_certified"] is True
    assert len(calls) == 1 and sum(calls[0]) == report["N"]


def test_reduce_builds_one_standard_algebra_per_realization(monkeypatch, tmp_path):
    path = tmp_path / "n11.json"
    cli.save_algebra(n11().algebra, str(path))
    calls, text = _counted_run(monkeypatch, ["reduce", str(path)])
    realized = [(r["p"], r["q"]) for r in json.loads(text)["realizations"]]
    assert realized and calls == realized
