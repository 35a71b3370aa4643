"""Every integer the CLI reads follows one rule, ``cli._integer``: an optional
ASCII sign and 1 to 4000 ASCII digits.

Each integer field of argv (R and S of ``clifford``, ``build`` and ``triple``,
P and Q of ``free``, ``lattice --pseudo-h R S``, ``orbit-check --p P --q Q``)
reads "+3" as 3 and "-1" as -1, and answers any other text that ``int()``
would take, such as " 7", "1_0" or another script's digits, as a usage error:
a message on stderr, nothing on stdout, exit code 2.  ``NILFORGE_SEED``
follows the same rule, and a seed it rejects is ``ERR_BAD_INPUT``.
"""

import json

import pytest

from nilforge import cli
from nilforge.cli import main

ORBIT = ["orbit-check", "a.json", "w1.json", "w2.json"]

# field -> (argv with X for the field's text, the parsed field's value)
FIELDS = {
    "clifford R": (["clifford", "X", "0"], lambda a: a.r),
    "clifford S": (["clifford", "0", "X"], lambda a: a.s),
    "build R": (["build", "X", "0"], lambda a: a.r),
    "build S": (["build", "0", "X"], lambda a: a.s),
    "triple R": (["triple", "X", "0"], lambda a: a.r),
    "triple S": (["triple", "0", "X"], lambda a: a.s),
    "free P": (["free", "X", "2"], lambda a: a.p),
    "free Q": (["free", "2", "X"], lambda a: a.q),
    "lattice --pseudo-h R": (["lattice", "--pseudo-h", "X", "1"], lambda a: a.pseudo_h[0]),
    "lattice --pseudo-h S": (["lattice", "--pseudo-h", "1", "X"], lambda a: a.pseudo_h[1]),
    "orbit-check --p": (ORBIT + ["--p", "X", "--q", "1"], lambda a: a.p),
    "orbit-check --q": (ORBIT + ["--p", "1", "--q", "X"], lambda a: a.q),
    "orbit-check --p=": (ORBIT + ["--p=X", "--q", "1"], lambda a: a.p),
}

ACCEPTED = {"+3": 3, "-1": -1, "0": 0, "007": 7, "9" * 4000: int("9" * 4000)}
REJECTED = [" 7", "7 ", "1_0", "٧", "-٧", "²", "+-1", "", "-", "1.0", "9" * 4001]


def _argv(field: str, text: str) -> list[str]:
    return [a.replace("X", text) for a in FIELDS[field][0]]


def _id(text: str) -> str:
    return repr(text) if len(text) < 20 else f"<{len(text)} digits>"


@pytest.mark.parametrize("text", ACCEPTED, ids=_id)
@pytest.mark.parametrize("field", FIELDS)
def test_each_field_reads_a_sign_and_ascii_digits(field, text):
    assert FIELDS[field][1](cli._parse(_argv(field, text))) == ACCEPTED[text]


@pytest.mark.parametrize("text", REJECTED, ids=_id)
@pytest.mark.parametrize("field", FIELDS)
def test_each_field_answers_lenient_integers_as_usage_errors(field, text, capsys):
    argv = _argv(field, text)  # "-" and "-٧" are values, as argparse read them
    with pytest.raises(ValueError, match=r"ASCII \[\+-\]digits"):
        cli._parse(argv)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("nilforge: error: must be ASCII [+-]digits")


@pytest.mark.parametrize("text, value", [("+3", 3), ("-1", -1), ("0", 0)])
def test_the_seed_reads_a_sign_and_ascii_digits(text, value, capsys, monkeypatch):
    monkeypatch.setenv("NILFORGE_SEED", text)
    assert main(["triple", "1", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == value


@pytest.mark.parametrize("text", [" 7", "1_0", "٧", "-٧", "²", "9" * 4001], ids=_id)
def test_the_seed_rejects_lenient_integers(text, capsys, monkeypatch):
    monkeypatch.setenv("NILFORGE_SEED", text)
    assert main(["triple", "1", "0"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "ERR_BAD_INPUT"
