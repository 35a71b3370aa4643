"""One certificate gate: every certificate goes through ``errors.certify``, and
a failed one exits 3.

A certificate is a check that no input can fail, so its failure is a fault
of the program, never bad input.  The source guard keeps every raise of
``HomomorphismError`` and ``CertificateError`` inside ``certify``, apart from
the two input checks of ``apply_free_automorphism``; the name list keeps one
name per certificate.  Each verb that reaches a certificate is then run once
per certificate it reaches, with that one forced to fail by wrapping
``certify`` in every module whose source calls it (each call is the bare
name, so the wrap sees it): the verb must exit 3 and print only the one JSON
error line on stdout, with no traceback.
"""

import ast
import importlib
import json
from pathlib import Path

import pytest

import nilforge
from nilforge import cli, errors, nilpotent
from nilforge.catalog import n20
from nilforge.errors import CertificateError, HomomorphismError, certify
from nilforge.exactlin import RationalMatrix
from nilforge.standardform import apply_free_automorphism
from test_reachability import _matrix, _write

PACKAGE = Path(nilforge.__file__).resolve().parent

# every certify call's name as its source text, once
NAMES = [
    'f"constructed module for ({sig.r},{sig.s}) failed verification"',
    '"pseudo H-type lattice pipeline failed certification"',
    '"neither isometry variant certifies; convention bug"',
    'f"{what} does not land in so({p},{q})"',
    '"reduction certificate failed; convention bug"',
    '"free automorphism certificate failed"',
    '"W lies outside K (+) complement"',
    '"h_pm lies outside L"',
    '"h_+ and h_- do not make a basis of L"',
    '"h_+ and h_- do not commute"',
    '"split summand is not an ideal of L"',
]


def _trees():
    """(module name, source, tree) for each module of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        yield path.stem, text, ast.parse(text)


def _functions(tree):
    """(function name, node) for every node, by its innermost function."""
    def walk(node, name):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else name
            yield inner, child
            yield from walk(child, inner)

    return walk(tree, None)


def _name(node):
    """The name a Name or Attribute node ends in."""
    return getattr(node, "id", getattr(node, "attr", None))


# (module name, source, call) for each certify call, bare or as errors.certify
CALLS = [
    (module, text, node)
    for module, text, tree in _trees()
    for node in ast.walk(tree)
    if isinstance(node, ast.Call) and _name(node.func) == "certify"
]
# every module of the package, and those whose certify calls the forced runs wrap
PACKAGE_MODULES = [
    importlib.import_module(f"nilforge.{m}") for m, _, _ in _trees() if m != "__init__"
]
MODULES = [importlib.import_module(f"nilforge.{m}") for m in sorted({m for m, _, _ in CALLS})]


def test_only_certify_and_the_two_input_checks_raise_a_homomorphism_error():
    raised = []
    for module, _, tree in _trees():
        for function, node in _functions(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = _name(exc)
                if name in ("HomomorphismError", "CertificateError"):
                    raised.append((module, function, name))
    assert sorted(raised) == [
        ("errors", "certify", "CertificateError"),
        ("standardform", "apply_free_automorphism", "HomomorphismError"),
        ("standardform", "apply_free_automorphism", "HomomorphismError"),
    ]


def test_every_certify_name_is_listed_once():
    names = [ast.get_source_segment(text, node.args[0]) for _, text, node in CALLS]
    assert len(set(NAMES)) == len(NAMES)
    assert sorted(names) == sorted(NAMES)


def test_every_certify_call_is_the_bare_name_that_the_forced_runs_wrap():
    # errors.certify(...) would bypass the wrapped module attribute
    assert all(isinstance(node.func, ast.Name) for _, _, node in CALLS)


def test_certify_raises_a_certificate_error_only_when_the_check_fails():
    certify("holds", True)
    with pytest.raises(CertificateError, match="^ERR_HOMOMORPHISM: fails$") as caught:
        certify("fails", False)
    assert isinstance(caught.value, HomomorphismError)
    assert caught.value.code == "ERR_HOMOMORPHISM" and caught.value.detail == "fails"


def test_the_two_input_checks_raise_a_plain_homomorphism_error():
    p, q = 2, 1
    ident, zero = RationalMatrix.identity(3), RationalMatrix.zeros(3, 3)
    for s_hom, x, match in [
        ([ident] * 3, ((1, 2, 3), None), "S_hom"),
        ([zero] * 3, ((1, 2, 3), ident), "center part"),
    ]:
        with pytest.raises(HomomorphismError, match=match) as caught:
            apply_free_automorphism(p, q, ident, s_hom, x)
        assert type(caught.value) is HomomorphismError
        assert not isinstance(caught.value, CertificateError)


@pytest.mark.parametrize("error, status", [(HomomorphismError, 2), (CertificateError, 3)])
def test_main_exits_3_only_for_a_certificate_error(monkeypatch, capsys, error, status):
    def handler(args):
        raise error("a check")

    monkeypatch.setitem(cli._VERBS, "clifford", (handler, *cli._VERBS["clifford"][1:]))
    assert cli.main(["clifford", "1", "0"]) == status
    out = capsys.readouterr()
    line = {"detail": "ERR_HOMOMORPHISM: a check", "error": "ERR_HOMOMORPHISM"}
    assert (out.out, out.err) == (json.dumps(line, sort_keys=True) + "\n", "")


VERBS = [
    "clifford", "build", "reduce", "lattice --pseudo-h", "triple 3 0", "examples", "orbit-check"
]


def _verbs(tmp: Path) -> dict[str, list[str]]:
    """Each verb of ``VERBS`` that reaches a certificate, as its argv."""
    n20_file = tmp / "n20.json"
    cli.save_algebra(n20().algebra, str(n20_file))
    # A W A^eta = W for A = [[1, 1], [0, 1]] and W = so(2), as det A = 1
    rot = _matrix([["0", "1"], ["-1", "0"]])
    a = _write(tmp / "a.json", _matrix([["1", "1"], ["0", "1"]]))
    w = _write(tmp / "w.json", {"ambient": 2, "basis": [rot]})
    return {
        "clifford": ["clifford", "2", "1"],
        "build": ["build", "1", "1"],
        "reduce": ["reduce", str(n20_file)],
        "lattice --pseudo-h": ["lattice", "--pseudo-h", "2", "1"],
        "triple 3 0": ["triple", "3", "0"],
        "examples": ["examples"],
        "orbit-check": ["orbit-check", a, w, w, "--p", "2", "--q", "0"],
    }


def _clear_memos():
    """Clear each lru_cache of the package, so that a memoized build certifies again."""
    for module in PACKAGE_MODULES:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _run(monkeypatch, capsys, argv, forced=None):
    """(exit status, stdout, stderr, names) for one in-process call: names lists
    the name of each certify call, and the certificate named ``forced`` fails."""
    _clear_memos()
    names = []

    def gate(name, ok):
        names.append(name)
        errors.certify(name, ok and name != forced)

    for module in MODULES:
        monkeypatch.setattr(module, "certify", gate)
    capsys.readouterr()
    status = cli.main(argv)
    out = capsys.readouterr()
    monkeypatch.undo()
    _clear_memos()
    return status, out.out, out.err, names


@pytest.mark.parametrize("verb", VERBS)
def test_each_forced_certificate_exits_3_with_one_error_line(monkeypatch, capsys, tmp_path, verb):
    argv = _verbs(tmp_path)[verb]
    status, _, _, names = _run(monkeypatch, capsys, argv)
    assert status == 0 and names
    for name in dict.fromkeys(names):
        status, out, err, _ = _run(monkeypatch, capsys, argv, forced=name)
        line = {"detail": f"ERR_HOMOMORPHISM: {name}", "error": "ERR_HOMOMORPHISM"}
        assert (status, out, err) == (3, json.dumps(line, sort_keys=True) + "\n", "")
        assert "Traceback" not in out



def test_scaling_isomorphism_fails_its_certificate_only_when_forced(monkeypatch):
    # no verb reaches scaling_isomorphism, so it is forced here directly
    a = n20().algebra
    assert nilpotent.scaling_isomorphism(a, a).status == "isometry"
    monkeypatch.setattr(nilpotent, "certify", lambda name, ok: errors.certify(name, False))
    with pytest.raises(CertificateError, match="neither isometry variant certifies"):
        nilpotent.scaling_isomorphism(a, a)
