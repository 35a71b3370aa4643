"""CLI golden outputs, exit codes, and serialization round-trips."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from nilforge import cli, standardform, triple
from nilforge.cli import canonical_json, load_algebra, main, save_algebra
from nilforge.catalog import n20
from nilforge.clifford import CliffordSignature, build_module
from nilforge.errors import BadInputError
from nilforge.exactlin import RationalMatrix, jsonify
from nilforge.standardform import so_basis


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, *argv):
    code, out = _run(capsys, *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# golden worked examples


def test_examples_n20_golden(capsys):
    code, d = _run_json(capsys, "examples", "n20")
    assert code == 0
    ex = d["n20"]
    assert ex["structure"][0]["entries"] == [
        ["0", "0", "1", "0"],
        ["0", "0", "0", "1"],
        ["-1", "0", "0", "0"],
        ["0", "-1", "0", "0"],
    ]
    assert ex["structure"][1]["entries"] == [
        ["0", "0", "0", "1"],
        ["0", "0", "-1", "0"],
        ["0", "1", "0", "0"],
        ["-1", "0", "0", "0"],
    ]
    twists = {(t["p"], t["q"]): t for t in ex["twists"]}
    assert twists[(2, 2)]["gram"]["entries"] == [["-4", "0"], ["0", "-4"]]
    assert twists[(3, 1)]["gram"]["entries"] == [["0", "0"], ["0", "0"]]
    assert twists[(1, 3)]["gram"]["entries"] == [["0", "0"], ["0", "0"]]
    assert twists[(2, 2)]["signature"] == [0, 2, 0]


def test_examples_n11_golden(capsys):
    code, d = _run_json(capsys, "examples", "n11")
    assert code == 0
    twists = {(t["p"], t["q"]): t for t in d["n11"]["twists"]}
    assert twists[(2, 2)]["gram"]["entries"] == [["4", "0"], ["0", "-4"]]
    assert twists[(2, 2)]["signature"] == [1, 1, 0]
    assert twists[(3, 1)]["signature"] == [0, 0, 2]


def test_examples_all_and_determinism(capsys):
    code1, out1 = _run(capsys, "examples")
    code2, out2 = _run(capsys, "examples")
    assert code1 == code2 == 0
    assert out1 == out2
    d = json.loads(out1)
    assert set(d) == {"n20", "n11", "n02", "heisenberg", "free"}
    assert all(entry["certified"] for entry in d["free"])
    assert len(d["free"]) == 3 + 4 + 5


def test_examples_unknown_name(capsys):
    code, d = _run_json(capsys, "examples", "nope")
    assert code == 2
    assert d["error"] == "ERR_BAD_INPUT"


# ---------------------------------------------------------------------------
# module and algebra verbs


def test_clifford_verb(capsys):
    code, d = _run_json(capsys, "clifford", "2", "1")
    assert code == 0
    assert d["verification"]["passed"]
    assert d["module"]["N"] == 8


def test_build_and_reduce_round_trip(tmp_path, capsys):
    path = tmp_path / "n20.json"
    code, d = _run_json(capsys, "build", "2", "0", "-o", str(path))
    assert code == 0
    assert d["pseudo_H_check"]["verdict"]
    code, d = _run_json(capsys, "reduce", str(path))
    assert code == 0
    assert [(e["p"], e["q"]) for e in d["realizations"]] == [(0, 4), (2, 2), (4, 0)]
    assert len(d["reductions"]) == 3


def test_reduce_requires_adapted(tmp_path, capsys):
    a = n20().algebra
    raw = a.__class__(
        m=a.m, n=a.n, structure=a.structure, form_V=a.form_V,
        form_Z=a.form_Z, tag="raw",
    )
    path = tmp_path / "raw.json"
    save_algebra(raw, str(path))
    code, d = _run_json(capsys, "reduce", str(path))
    assert code == 2
    assert d["error"] == "ERR_NOT_ADAPTED"


def test_free_verb(capsys):
    code, d = _run_json(capsys, "free", "1", "1")
    assert code == 0
    assert d["isomorphism"]["certified"]
    assert d["isomorphism"]["gram_diagonal"] == ["-1/2"]


def test_free_verb_builds_each_algebra_once(capsys, monkeypatch):
    # free P Q needs F_2(p,q) and F_2(p+q, 0); each is built once
    built = []
    build = standardform.standard_algebra
    monkeypatch.setattr(
        standardform, "standard_algebra", lambda p, q, w: built.append((p, q)) or build(p, q, w)
    )
    standardform.free_algebra.cache_clear()
    code, d = _run_json(capsys, "free", "2", "1")
    assert code == 0 and d["isomorphism"]["certified"]
    assert sorted(built) == [(2, 1), (3, 0)]


def test_triple_verb_seeded(capsys, monkeypatch):
    monkeypatch.setenv("NILFORGE_SEED", "11")
    code, d = _run_json(capsys, "triple", "2", "0")
    assert code == 0
    assert d["seed"] == 11
    assert d["report"]["is_triple"]
    assert d["report"]["L_dim"] == 3


def test_triple_verb_builds_the_ad_table_once(capsys, monkeypatch):
    # the probe reads the ad table that the report was built from
    tables = []
    ad_matrices = triple._ad_matrices
    monkeypatch.setattr(
        triple, "_ad_matrices", lambda l, *args: tables.append(l) or ad_matrices(l, *args)
    )
    triple.clifford_triple_report.cache_clear()
    code, d = _run_json(capsys, "triple", "2", "1")
    assert code == 0 and d["report"]["L_dim"] == 6
    assert len(tables) == 1


def test_lattice_verb_file_and_pipeline(tmp_path, capsys):
    path = tmp_path / "n11.json"
    main(["build", "1", "1", "-o", str(path)])
    capsys.readouterr()
    code, d = _run_json(capsys, "lattice", str(path))
    assert code == 0
    assert d["status"] == "AdmitsLattice"
    assert d["rescale_factor"] == 1
    code, d = _run_json(capsys, "lattice", "--pseudo-h", "1", "1")
    assert code == 0
    assert d["trace_identity"] and d["gram_is_2l_eta"]
    assert d["verdict"]["status"] == "AdmitsLattice"


def test_lattice_file_rejects_lenient_integer_text(tmp_path, capsys):
    # "1_0" is int()'s text for 10, but not a rational literal of the format
    path = tmp_path / "n11.json"
    main(["build", "1", "1", "-o", str(path)])
    capsys.readouterr()
    obj = json.loads(path.read_text())
    obj["C"][0][0][1], obj["C"][0][1][0] = "1_0", "-1_0"
    path.write_text(json.dumps(obj))
    code, d = _run_json(capsys, "lattice", str(path))
    assert code == 2
    assert d["error"] == "ERR_BAD_INPUT"


def test_lattice_verb_needs_input(capsys):
    code, d = _run_json(capsys, "lattice")
    assert code == 2
    assert d["error"] == "ERR_BAD_INPUT"


def test_orbit_check_verb(tmp_path, capsys):
    from nilforge.exactlin import MatrixSubspace, RationalMatrix
    from nilforge.standardform import gl_action, so_basis

    p, q = 2, 0
    w1 = MatrixSubspace(2, [so_basis(p, q).basis[0]])
    a = RationalMatrix(((1, 1), (0, 1)))
    w2 = gl_action(a, w1, p, q)
    files = {}
    for name, obj in (("a", a), ("w1", w1), ("w2", w2)):
        f = tmp_path / f"{name}.json"
        f.write_text(canonical_json(obj.to_json()))
        files[name] = str(f)
    code, d = _run_json(
        capsys, "orbit-check", files["a"], files["w1"], files["w2"],
        "--p", str(p), "--q", str(q),
    )
    assert code == 0 and d["match"]
    # identity does not map w1 onto a genuinely different w2 -> exit 1
    ident = tmp_path / "id.json"
    ident.write_text(canonical_json(RationalMatrix.identity(2).to_json()))
    code, d = _run_json(
        capsys, "orbit-check", str(ident), files["w1"], files["w2"],
        "--p", str(p), "--q", str(q),
    )
    if not w1.equals(w2):
        assert code == 1 and not d["match"]


# ---------------------------------------------------------------------------
# serialization and error paths


def test_save_load_byte_exact_round_trip(tmp_path):
    a = n20().algebra
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_algebra(a, str(p1))
    again = load_algebra(str(p1))
    assert again == a
    save_algebra(again, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_load_reports_parse_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"m": 2,\n  "n": }')
    with pytest.raises(BadInputError) as err:
        load_algebra(str(bad))
    assert "line 2" in str(err.value)


def test_cli_rejects_non_antisymmetric(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "m": 2,
                "n": 1,
                "C": [[["0", "1"], ["1", "0"]]],
                "form_V": None,
                "form_Z": None,
                "tag": "raw",
            }
        )
    )
    code, d = _run_json(capsys, "lattice", str(path))
    assert code == 2
    assert d["error"] == "ERR_NOT_ANTISYMMETRIC"


def test_cli_rejects_boolean_entries(tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text(
        json.dumps(
            {
                "m": 2,
                "n": 1,
                "C": [[[False, True], [-1, 0]]],
                "form_V": None,
                "form_Z": None,
                "tag": "adapted",
            }
        )
    )
    code, d = _run_json(capsys, "reduce", str(path))
    assert code == 2
    assert d["error"] == "ERR_BAD_INPUT"


def test_cli_rejects_adapted_algebra_without_center(tmp_path, capsys):
    path = tmp_path / "n0.json"
    path.write_text(json.dumps({"m": 2, "n": 0, "C": [], "tag": "adapted"}))
    code, d = _run_json(capsys, "reduce", str(path))
    assert code == 2
    assert d["error"] == "ERR_BAD_INPUT"


def test_cli_rejects_boolean_dimensions(tmp_path, capsys):
    path = tmp_path / "bool_dims.json"
    path.write_text(json.dumps({"m": True, "n": True, "C": [[[0]]], "tag": "raw"}))
    code, d = _run_json(capsys, "lattice", str(path))
    assert code == 2
    assert d["error"] == "ERR_BAD_INPUT"
    assert "m must be an integer" in d["detail"]


def test_cli_rejects_float_dimensions(tmp_path, capsys):
    path = tmp_path / "float_dims.json"
    path.write_text(
        json.dumps({"m": 2.0, "n": 1, "C": [[[0, 1], [-1, 0]]], "tag": "raw"})
    )
    code, d = _run_json(capsys, "lattice", str(path))
    assert code == 2
    assert d["error"] == "ERR_BAD_INPUT"
    assert "m must be an integer" in d["detail"]


def test_unknown_verb_exit_2(capsys):
    assert main(["frobnicate"]) == 2


def test_cli_rejects_negative_dimensions(tmp_path, capsys):
    path = tmp_path / "neg.json"
    path.write_text(json.dumps({"m": -1, "n": 0, "C": [], "tag": "raw"}))
    code, d = _run_json(capsys, "lattice", str(path))
    assert code == 2
    assert d["error"] == "ERR_BAD_INPUT"
    assert "non-negative" in d["detail"]


def test_cli_rejects_negative_signature(tmp_path, capsys):
    # a negative p or q is ERR_DIM, not a size clash further down
    a = tmp_path / "a.json"
    a.write_text(canonical_json(RationalMatrix.identity(2).to_json()))
    w = tmp_path / "w.json"
    w.write_text(canonical_json(so_basis(2, 0).to_json()))
    for argv in (
        ["free", "-1", "4"],
        ["free", "9", "-1"],
        ["free", "2", "-1"],
        ["orbit-check", str(a), str(w), str(w), "--p", "-1", "--q", "3"],
    ):
        code, d = _run_json(capsys, *argv)
        assert (code, d["error"]) == (2, "ERR_DIM"), argv


def test_internal_fault_is_not_bad_input(capsys, monkeypatch):
    # a TypeError inside a verb is a fault of the program: ERR_INTERNAL, exit 3
    def broken(sig):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(cli, "build_module", broken)
    code = main(["clifford", "2", "0"])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out) == {
        "error": "ERR_INTERNAL",
        "detail": "TypeError: unsupported operand",
    }
    assert "Traceback" in captured.err


def test_cli_rejects_non_integer_seed(capsys, monkeypatch):
    monkeypatch.setenv("NILFORGE_SEED", "x")
    code, d = _run_json(capsys, "triple", "1", "0")
    assert code == 2
    assert d["error"] == "ERR_BAD_INPUT"


def test_cli_rejects_non_utf8_input(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"m": "\xe9"}')
    code, d = _run_json(capsys, "lattice", str(path))
    assert code == 2
    assert d["error"] == "ERR_BAD_INPUT"


def test_parser_built_once_per_process(tmp_path, capsys):
    # argv is read against the verb table that import builds: nothing more is
    # built per call, and two calls on one argv print the handler's own bytes
    path = tmp_path / "n20.json"
    save_algebra(n20().algebra, str(path))
    argv = ["lattice", str(path)]
    assert cli._cmd_lattice(SimpleNamespace(input=str(path), pseudo_h=None, output=None)) == 0
    expected = capsys.readouterr().out
    assert [_run(capsys, *argv) for _ in range(2)] == [(0, expected)] * 2
    # importing the CLI loads no argument-parsing library, nor its gettext and locale
    probe = "import sys, nilforge.cli; print({'argparse', 'gettext', 'locale'} & {*sys.modules})"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout == "set()\n"


# ---------------------------------------------------------------------------
# one text path: each value writes its own JSON once


def test_jsonify_rejects_floats_and_unknown_objects():
    for bad in (0.5, {"x": [1, 0.5]}, object(), {"module": [object()]}):
        with pytest.raises(TypeError):
            jsonify(bad)


def test_float_in_a_report_is_an_internal_fault(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_module", lambda module: {"passed": True, "x": 0.5})
    code = main(["clifford", "1", "0"])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out)["error"] == "ERR_INTERNAL"


def test_objects_in_a_report_write_their_own_json():
    module = build_module(CliffordSignature(2, 1))
    algebra = n20().algebra
    report = {"module": module, "nested": [{"algebra": algebra}], "half": Fraction(1, 2)}
    assert jsonify(report) == {
        "module": module.to_json(),
        "nested": [{"algebra": algebra.to_json()}],
        "half": "1/2",
    }

    class Own:
        def to_json(self):
            return {"kept": (Fraction(1, 3),)}

    # a to_json result is final: jsonify does not walk it again
    assert jsonify({"own": Own()}) == {"own": {"kept": (Fraction(1, 3),)}}


@pytest.mark.parametrize("field", [{"symbolic": "false"}, {"form_V": 0}], ids=["symbolic", "form"])
def test_cli_rejects_ill_typed_algebra_fields(tmp_path, capsys, field):
    path = tmp_path / "algebra.json"
    obj = {"m": 2, "n": 1, "C": [[[0, 1], [-1, 0]]], "tag": "adapted", **field}
    path.write_text(json.dumps(obj))
    code, d = _run_json(capsys, "lattice", str(path))
    assert code == 2
    assert d["error"] == "ERR_BAD_INPUT"


def _n11_with(**fields):
    return {"m": 2, "n": 1, "C": [[["0", "1"], ["-1", "0"]]], "tag": "raw", **fields}


# a string or a dict iterates as its characters or keys; read as rows, each
# case below would be a valid input (["10", "01"] the identity)
SO11 = {"ambient": 2, "basis": [{"entries": [["0", "1"], ["1", "0"]]}]}
ORBIT = {"matrix": {"entries": [["1", "0"], ["0", "1"]]}, "source": SO11, "target": SO11}
STRING_ROWS = {
    "algebra-C": {"algebra": _n11_with(C=[["00", "00"]])},
    "form-V": {"algebra": _n11_with(form_V={"entries": ["10", "01"]}, form_Z={"entries": [["1"]]})},
    "orbit-matrix": {**ORBIT, "matrix": {"entries": ["10", "01"]}},
    "orbit-subspace": {
        **ORBIT,
        "source": {"ambient": 2, "basis": [{"entries": [["0", "1"], {"1": 0, "0": 0}]}]},
    },
}


@pytest.mark.parametrize("files", STRING_ROWS.values(), ids=STRING_ROWS)
def test_cli_rejects_string_rows(tmp_path, capsys, files):
    paths = []
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
        paths.append(str(tmp_path / f"{name}.json"))
    if "algebra" in files:
        argv = ["lattice", *paths]
    else:
        argv = ["orbit-check", *paths, "--p", "1", "--q", "1"]
    code, d = _run_json(capsys, *argv)
    assert code == 2
    assert d["error"] == "ERR_BAD_INPUT"


@pytest.mark.parametrize("verb", ["clifford", "build"])
def test_unwritable_output_is_bad_input(tmp_path, capsys, verb):
    target = tmp_path / "missing" / "x.json"
    code, d = _run_json(capsys, verb, "1", "0", "-o", str(target))
    assert code == 2
    assert d["error"] == "ERR_BAD_INPUT"
    assert str(target) in d["detail"]
    assert not target.exists()


def _seed_id(seed):
    return seed if len(seed) < 10 else f"{len(seed)} digits"


# int() would read the first three; past int()'s 4300-digit limit it raises
@pytest.mark.parametrize(
    "seed", [" 7 ", "1_0", "٧", "", "+", "7.0", "0x7", "9" * 4001], ids=_seed_id
)
def test_cli_seed_is_ascii_digits_only(capsys, monkeypatch, seed):
    monkeypatch.setenv("NILFORGE_SEED", seed)
    code, d = _run_json(capsys, "triple", "1", "0")
    assert code == 2
    assert d["error"] == "ERR_BAD_INPUT"


@pytest.mark.parametrize("seed", ["11", "-3", "+5", "007", "9" * 4000], ids=_seed_id)
def test_cli_seed_accepts_signed_ascii_integers(capsys, monkeypatch, seed):
    monkeypatch.setenv("NILFORGE_SEED", seed)
    code, d = _run_json(capsys, "triple", "1", "0")
    assert code == 0
    assert d["seed"] == int(seed)


def test_closed_stdout_is_bad_input_not_a_crash():
    # the reader closes the pipe before the report is written, as in
    # `nilforge clifford 6 0 | (exit 0)`: no traceback, nothing more on
    # stdout, one ERR_BAD_INPUT line on stderr, exit 2
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "nilforge.cli", "clifford", "6", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()  # before the module is built and written
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert "Traceback" not in err
    assert [json.loads(line)["error"] for line in err.splitlines()] == ["ERR_BAD_INPUT"]


@pytest.mark.parametrize("verb", ["lattice", "reduce"])
def test_over_long_json_integer_is_bad_input(tmp_path, capsys, verb):
    # json.load raises a plain ValueError past int()'s 4300-digit limit
    path = tmp_path / "long.json"
    path.write_text('{"m": 1' + "0" * 4400 + ', "n": 1, "C": []}', encoding="utf-8")
    code, d = _run_json(capsys, verb, str(path))
    assert code == 2
    assert d["error"] == "ERR_BAD_INPUT"
