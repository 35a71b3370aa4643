"""Checked-in certificate mutants and a runner that tries each one.

Each entry switches off one certificate of the package: the exact old text,
which must occur once under src/nilforge, is replaced by the new text.  A
mutant is killed when the test suite fails against it; a mutant that
survives names a certificate that no test can fail.

    python tests/mutants.py            # every mutant
    python tests/mutants.py 0 2        # the mutants with these indices

Each mutant runs ``pytest -x -q`` on a temporary copy of src/ and tests/,
without the test that checks the old texts; the working tree is never
edited.  Exit status 1 if any mutant survives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the tier-1 test that each old text occurs once; every mutant fails it, so
# it is left out of the mutant runs
TEXT_CHECK = "tests/test_certificate_faults.py::test_mutant_text_occurs_once"

# (file under src/nilforge, exact old text, new text, reason)
MUTANTS = [
    (
        "standardform.py",
        "    if not all(in_so(b, p, q) for b in out.basis):\n",
        "    if False:\n",
        "_so_image: images of eta_twist and gl_action are not checked to lie in so(p,q)",
    ),
    (
        "standardform.py",
        "    if images != brackets:\n",
        "    if False:\n",
        "apply_free_automorphism: rho(A) phi_ij is not compared with [A e_i, A e_j]",
    ),
    (
        "lattice.py",
        "    if not (trace_identity and gram_ok and iso_ok):\n",
        "    if False:\n",
        "pseudo_H_pipeline_report: trace identity, Gram and isomorphism go unchecked",
    ),
    (
        "clifford.py",
        '    if not report["passed"]:\n',
        "    if False:\n",
        "build_module: a module that fails verify_module is returned",
    ),
]


def _run(index: int, entry) -> bool:
    """Apply one mutant to a temporary copy and run the suite; True if killed."""
    name, old, new, _ = entry
    with tempfile.TemporaryDirectory(prefix="nilforge-mutant-") as tmp:
        tmp = Path(tmp)
        shutil.copytree(ROOT / "src", tmp / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", tmp / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp / "pyproject.toml")
        target = tmp / "src" / "nilforge" / name
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise SystemExit(f"mutant {index}: old text is not unique in {name}")
        target.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
            + ["--deselect", TEXT_CHECK],
            cwd=tmp,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
    return done.returncode != 0


def main(argv: list[str]) -> int:
    chosen = [int(a) for a in argv] if argv else range(len(MUTANTS))
    survived = 0
    for index in chosen:
        entry = MUTANTS[index]
        start = time.perf_counter()
        killed = _run(index, entry)
        survived += not killed
        verdict = "killed" if killed else "SURVIVED"
        print(f"{index} {verdict:8} {time.perf_counter() - start:5.1f}s  {entry[0]}: {entry[3]}")
    print(f"{len(chosen) - survived} killed, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
