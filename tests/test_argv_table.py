"""The CLI's argv reading, held to the argparse parser it replaced.

``cli._parse`` reads argv against one verb table.  The parser that the CLI
built with argparse before is kept here, verbatim, as the reference: on every
argv of the corpus the two give the same fields (handlers compared by name),
or both reject the argv, which ``cli.main`` answers with a message on stderr,
nothing on stdout and exit code 2.  Two kinds of argv that argparse read are
usage errors here: its abbreviations (``DROPPED``) and ``int()``'s lenient
integers (``LENIENT``).
"""

import argparse
import subprocess
import sys

import pytest

from nilforge import cli
from nilforge.catalog import n20
from nilforge.cli import (
    _cmd_build,
    _cmd_clifford,
    _cmd_examples,
    _cmd_free,
    _cmd_lattice,
    _cmd_orbit_check,
    _cmd_reduce,
    _cmd_triple,
    main,
    save_algebra,
)

VERBS = ("clifford", "build", "reduce", "free", "triple", "lattice", "orbit-check", "examples")


def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="nilforge",
        description="Exact-rational toolkit for 2-step nilpotent Lie algebras "
        "with indefinite scalar products.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def out_flag(p, text="also write the JSON report here"):
        p.add_argument("-o", "--output", default=None, help=text)

    p = sub.add_parser("clifford", help="build and verify an integer Clifford module")
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    out_flag(p)
    p.set_defaults(func=_cmd_clifford)

    p = sub.add_parser("build", help="build the pseudo H-type algebra n_{r,s}")
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    out_flag(p, "write the algebra JSON, the input of reduce FILE and lattice FILE, here")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("reduce", help="realizations and certified standard reductions")
    p.add_argument("input", help="algebra JSON file")
    out_flag(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("free", help="free metric 2-step algebra F_2(p,q)")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    out_flag(p)
    p.set_defaults(func=_cmd_free)

    p = sub.add_parser("triple", help="Lie triple system generated by the module")
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    out_flag(p)
    p.set_defaults(func=_cmd_triple)

    p = sub.add_parser("lattice", help="Mal'cev lattice verdict")
    p.add_argument("input", nargs="?", default=None, help="algebra JSON file")
    p.add_argument(
        "--pseudo-h",
        nargs=2,
        type=int,
        metavar=("R", "S"),
        default=None,
        help="run the full pseudo H-type witness pipeline",
    )
    out_flag(p)
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("orbit-check", help="verify A W1 A^eta = W2")
    p.add_argument("matrix", help="matrix JSON file for A")
    p.add_argument("source", help="subspace JSON file for W1")
    p.add_argument("target", help="subspace JSON file for W2")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    out_flag(p)
    p.set_defaults(func=_cmd_orbit_check)

    p = sub.add_parser("examples", help="golden worked-example suite")
    p.add_argument("name", nargs="?", default="all")
    out_flag(p)
    p.set_defaults(func=_cmd_examples)

    return parser


ORBIT = ["orbit-check", "a.json", "w1.json", "w2.json"]
CORPUS = [
    # each verb's documented form
    ["clifford", "2", "1"],
    ["build", "1", "1"],
    ["build", "1", "1", "-o", "n11.json"],
    ["reduce", "n11.json"],
    ["free", "3", "2"],
    ["triple", "3", "0"],
    ["lattice", "n11.json"],
    ["lattice", "--pseudo-h", "3", "1"],
    ["lattice", "n11.json", "--pseudo-h", "3", "1"],  # the handler's ERR_BAD_INPUT
    ORBIT + ["--p", "2", "--q", "0"],
    ["examples"],
    ["examples", "n20"],
    ["examples", "free", "-o", "x.json"],
    # -o, --output and --output=, before, between or after the positionals
    ["clifford", "2", "1", "-o", "x.json"],
    ["clifford", "-o", "x.json", "2", "1"],
    ["clifford", "2", "--output", "x.json", "1"],
    ["clifford", "2", "1", "--output=x.json"],
    ["reduce", "--output=", "n11.json"],
    ["free", "2", "1", "-o=x.json"],
    ["free", "2", "1", "-o", "a.json", "--output", "b.json"],  # the last one counts
    ["clifford", "2", "1", "-o", "-1"],
    ["clifford", "2", "1", "-o", "-"],
    ["examples", "-o", "x.json", "heisenberg"],
    ["lattice", "-o", "x.json", "--pseudo-h", "2", "0"],
    # --p and --q: negative, joined by =, between the positionals
    ORBIT + ["--p", "-1", "--q", "3"],
    ORBIT + ["--p=-1", "--q=3"],
    ["orbit-check", "--q", "0", "a.json", "--p", "2", "w1.json", "w2.json"],
    ORBIT + ["--p", "1", "--q", "1", "--p", "2"],
    # negative positionals
    ["free", "-1", "3"],
    ["clifford", "-2", "0"],
    ["lattice", "--pseudo-h", "-1", "2"],
    # -- ends the options
    ["reduce", "--", "-x.json"],
    ["clifford", "--", "-1", "2"],
    ["clifford", "1", "--", "2"],
    ["lattice", "--", "--pseudo-h"],
    ["examples", "--"],
    ["reduce", "-a b.json"],  # a text with a space is a value
    # missing and extra positionals
    ["clifford", "1"],
    ["clifford", "1", "2", "3"],
    ["reduce"],
    ["reduce", "a.json", "b.json"],
    ORBIT[:3] + ["--p", "1", "--q", "1"],
    ["examples", "n20", "free"],
    ["lattice", "a.json", "b.json"],
    # options without their value, or missing
    ["reduce", "a.json", "-o"],
    ["reduce", "a.json", "-o", "--"],
    ["reduce", "a.json", "-o", "-x"],
    ["lattice", "--pseudo-h", "3"],
    ["lattice", "--pseudo-h=3", "1"],
    ["lattice", "--pseudo-h", "3", "-o", "x.json"],
    ORBIT + ["--p", "2"],
    ORBIT + ["--p", "--q", "1"],
    ORBIT,
    # non-integers, and a sign, which int() reads as argparse did
    ["clifford", "x", "1"],
    ["clifford", "1.5", "1"],
    ["free", "", "1"],
    ["free", "-1.5", "2"],
    ["free", "1" + "0" * 4999, "1"],
    ORBIT + ["--p", "x", "--q", "1"],
    ["clifford", "+3", "0"],
    # unknown verbs and options, and no verb
    ["frobnicate", "1"],
    ["clifford", "1", "2", "--frob"],
    ["clifford", "1", "2", "-x"],
    ["orbit-check", "a.json", "w1.json", "w2.json", "--pseudo-h", "1", "2"],
    ["-o", "x.json", "clifford", "1", "2"],
    ["--", "clifford", "1", "2"],
    [],
    [""],
    ["lattice"],
]

# int()'s lenient integers, which argparse read too: one integer rule,
# ``cli._integer``, takes only an optional ASCII sign and ASCII digits
LENIENT = [
    ["clifford", " 7", "0"],
    ["clifford", "1_0", "0"],
    ["clifford", "٧", "0"],
    ["free", "-٧", "2"],
]

# argparse's unique prefixes and attached short options, which are not read
DROPPED = [
    ["clifford", "2", "1", "--out", "x.json"],
    ["clifford", "2", "1", "--outp=x.json"],
    ["clifford", "2", "1", "-ox.json"],
    ["lattice", "--pseudo", "3", "1"],
    ["lattice", "--p", "3", "1"],
    ORBIT + ["--p", "2", "--q", "0", "--o", "x.json"],
]


def _fields(args) -> dict:
    out = dict(vars(args))
    out["func"] = out["func"].__name__
    return out


def _reference(argv, capsys):
    """The fields argparse gives, or None where it exits 2."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        assert exc.code == 2
        assert capsys.readouterr().out == ""
        return None
    return _fields(args)


def _parsed(argv):
    """The fields the verb table gives, or None for a usage error."""
    try:
        return _fields(cli._parse(argv))
    except ValueError:
        return None


def test_the_corpus_is_large_and_mixed(capsys):
    outcomes = [_reference(argv, capsys) is None for argv in CORPUS]
    assert len(CORPUS) >= 40
    assert 20 <= outcomes.count(False) and 20 <= outcomes.count(True)
    assert {argv[0] for argv in CORPUS if argv} >= set(VERBS)


def _id(argv) -> str:
    return " ".join(a if len(a) < 20 else f"<{len(a)} characters>" for a in argv) or "(none)"


@pytest.mark.parametrize("argv", CORPUS, ids=_id)
def test_parse_equals_argparse(argv, capsys):
    expected = _reference(argv, capsys)
    assert _parsed(argv) == expected
    if expected is None:  # the usage error as main answers it
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("nilforge: error: ")


@pytest.mark.parametrize("argv", LENIENT, ids=_id)
def test_lenient_integers_are_usage_errors(argv, capsys):
    assert _reference(argv, capsys) is not None  # argparse read them
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("nilforge: error: ")


@pytest.mark.parametrize("argv", DROPPED, ids=_id)
def test_dropped_abbreviations_are_usage_errors(argv, capsys):
    assert _reference(argv, capsys) is not None  # argparse read them
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err


HELP = [["--help"], ["-h"], ["lattice", "-h"], ["clifford", "1", "--help"], ["free", "-x", "-h"]]


@pytest.mark.parametrize("argv", HELP)
def test_help_names_every_verb(argv, capsys):
    with pytest.raises(SystemExit) as exc:  # argparse printed its help here too
        _build_parser().parse_args(argv)
    assert exc.value.code == 0
    capsys.readouterr()
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert [line.split()[1] for line in lines[1:]] == list(VERBS)
    assert "  nilforge orbit-check A W1 W2 [-o FILE] --p P --q Q" in lines
    assert "  nilforge lattice [FILE] [-o FILE] [--pseudo-h R S]" in lines


def test_after_double_dash_help_is_a_value():
    assert cli._parse(["reduce", "--", "-h"]).input == "-h"


@pytest.mark.parametrize("seed", ["²", "-", "+-1"])
def test_cli_seed_rejects_sign_only_and_non_ascii_digits(seed, capsys, monkeypatch):
    monkeypatch.setenv("NILFORGE_SEED", seed)
    assert main(["triple", "1", "0"]) == 2
    assert '"ERR_BAD_INPUT"' in capsys.readouterr().out


_PROBE = """
import contextlib, io, sys
from nilforge.cli import main
path = sys.argv[1]
calls = [["clifford", "2", "1"], ["free", "2", "1"], ["triple", "2", "1"],
         ["reduce", path], ["lattice", path], ["lattice", "--pseudo-h", "2", "1"]]
for argv in calls:
    before = set(sys.modules)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    print(argv[0], code, sorted(set(sys.modules) - before))
"""


def test_first_verb_calls_import_nothing(tmp_path):
    path = tmp_path / "n20.json"
    save_algebra(n20().algebra, str(path))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, str(path)], capture_output=True, text=True, check=True
    ).stdout
    lines = [line.split(" ", 2) for line in out.splitlines()]
    assert [line[0] for line in lines] == ["clifford", "free", "triple", "reduce"] + ["lattice"] * 2
    assert all(code in ("0", "1") for _, code, _ in lines)
    assert [new for _, _, new in lines] == ["[]"] * 6
