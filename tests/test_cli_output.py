"""How the CLI hands its report to stdout: a reader that cuts the output
short gets exit 2, and an in-process capture still gets the whole report."""

import contextlib
import io
import json
import os
import subprocess
import sys

from nilforge import cli


def test_output_cut_short_by_the_reader_is_bad_input():
    # `nilforge clifford 6 0 | head -c1`: the reader takes one byte of the
    # 0.4 MB report and closes the pipe, so the write stops short; that is a
    # closed stdout too, not success
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "nilforge.cli", "clifford", "6", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert "Traceback" not in err
    assert [json.loads(line)["error"] for line in err.splitlines()] == ["ERR_BAD_INPUT"]


def test_in_process_capture_still_gets_the_report(capsys):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["clifford", "1", "0"]) == 0
    assert json.loads(buf.getvalue())["verification"]["passed"] is True
    assert cli.main(["clifford", "1", "0"]) == 0
    assert capsys.readouterr().out == buf.getvalue()
