"""Checked-in certificate mutants and a runner that tries each one.

Each entry switches off one certificate of the package, breaks one exact
kernel that the certificates compute with, or breaks the gate that reports a
failed certificate (``errors.certify`` and its exit status): the exact old
text, which must occur once under src/nilforge, is replaced by the new text.
A mutant is killed when the test suite fails against it; a mutant that
survives names a check that no test can fail.

    python tests/mutants.py            # every mutant
    python tests/mutants.py 0 2        # the mutants with these indices

Each mutant runs ``pytest -x -q`` on a temporary copy of src/ and tests/,
without the test that checks the old texts and with Hypothesis's shrinking
off (``PROFILE``); the working tree is never edited.  Its likely killers run
first: the test files that name the function whose body holds the mutated
text (found with ``ast``), or, when no test file names it, those that name
its callers, the package functions whose body names it.  The whole suite
runs only if they all pass, so the verdict is still the whole suite's.  Exit
status 1 if any mutant survives.
"""

from __future__ import annotations

import ast
import os
import re
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

# a plugin that each mutant run loads: any failing example kills a mutant, so
# Hypothesis stops at the first one instead of shrinking it to a minimal one
PROFILE = """from hypothesis import Phase, settings

settings.register_profile("mutants", phases=set(Phase) - {Phase.shrink, Phase.explain})
settings.load_profile("mutants")
"""

# (file under src/nilforge, exact old text, new text, reason)
MUTANTS = [
    (
        "standardform.py",
        '    certify(f"{what} does not land in so({p},{q})",'
        " all(in_so(b, p, q) for b in out.basis))\n",
        '    certify(f"{what} does not land in so({p},{q})", True)\n',
        "_so_image: images of eta_twist and gl_action are not checked to lie in so(p,q)",
    ),
    (
        "standardform.py",
        '    certify("free automorphism certificate failed", images == brackets)\n',
        '    certify("free automorphism certificate failed", True)\n',
        "apply_free_automorphism: rho(A) phi_ij is not compared with [A e_i, A e_j]",
    ),
    (
        "lattice.py",
        '    certify("pseudo H-type lattice pipeline failed certification", ok)\n',
        '    certify("pseudo H-type lattice pipeline failed certification", True)\n',
        "pseudo_H_pipeline_report: trace identity, Gram and isomorphism go unchecked",
    ),
    (
        "clifford.py",
        '    certify(f"constructed module for ({sig.r},{sig.s}) failed verification", passed)\n',
        '    certify(f"constructed module for ({sig.r},{sig.s}) failed verification", True)\n',
        "build_module: a module that fails verify_module is returned",
    ),
    (
        "standardform.py",
        "    if not all(in_so(s, p, q) for s in s_hom):\n",
        "    if False:\n",
        "apply_free_automorphism: the images S_hom(e_i) are not checked to lie in so(p,q)",
    ),
    (
        "standardform.py",
        '    certify("reduction certificate failed; convention bug",'
        " all(tuple(b) == neg_c for b in back))\n",
        '    certify("reduction certificate failed; convention bug", True)\n',
        "_reduction_pass: the standard structure is not multiplied back (G C' = -C), so"
        " T([v_i, v_j]) is not compared with it",
    ),
    (
        "exactlin.py",
        "            g = gcd(content, d)  # d for a zero n, whose D is then 1\n",
        "            g = 1\n",
        "_of: computed matrices, lin_combs' outputs among them, are not brought to lowest terms",
    ),
    (
        "exactlin.py",
        "        ({l: d * x for l, x in comb.items()}, num[p])\n",
        "        ({l: d * x for l, x in comb.items()}, 1)\n",
        "inverse: the echelon combinations are not divided by their pivot entry",
    ),
    (
        "standardform.py",
        "    if x[1] is not None and not in_so(x[1], p, q):\n",
        "    if False:\n",
        "apply_free_automorphism: the center part of x is not checked to lie in so(p,q)",
    ),
    (
        "exactlin.py",
        "    contents = np.gcd.reduce(prod, axis=1).tolist()\n",
        "    contents = [1] * len(prod)\n",
        "lin_combs: _of is handed content 1 for every row, so no output is reduced",
    ),
    (
        "exactlin.py",
        "    prod, d = _product_numerators(a, stack, False), a._d * stack._d\n",
        "    prod, d = _product_numerators(a.transpose(), stack, False), a._d * stack._d\n",
        "lin_combs: the coefficient matrix is read transposed",
    ),
    (
        "clifford.py",
        '        "two_of_three": [skew, orth, square].count(True) != 2,\n',
        '        "two_of_three": True,\n',
        "verify_module: the two-of-three spot check always passes",
    ),
    (
        "clifford.py",
        '        "integer_entries": all(g.is_ternary() for g in module.generators),\n',
        '        "integer_entries": True,\n',
        "verify_module: generator entries are not checked to be -1, 0 or 1",
    ),
    (
        "exactlin.py",
        "    return full.tolist()\n",
        "    return [True] * us.cols\n",
        "closure_is_full: every start vector's closure is certified full",
    ),
    (
        "exactlin.py",
        "    y = (z1 + z2 @ z3) % p\n",
        "    y = z1 % p\n",
        "closure_is_full: Y loses its product term, and an ad matrix has no full Krylov space",
    ),
    (
        "standardform.py",
        '    certify("W lies outside K (+) complement", None not in rels)\n',
        '    certify("W lies outside K (+) complement", True)\n',
        "quotient_by_center_subspace: W is not checked to lie in K (+) complement",
    ),
    (
        "exactlin.py",
        "        return (same & sums & ((col == ct) | (c == 0)[:, :, None])).all(axis=2).tolist()\n",
        "        return (sums & ((col == ct) | (c == 0)[:, :, None])).all(axis=2).tolist()\n",
        "polarized_match: two products in different columns of a row count as one entry",
    ),
    (
        "exactlin.py",
        "        return (same & sums & ((col == ct) | (c == 0)[:, :, None])).all(axis=2).tolist()\n",
        "        return (same & sums).all(axis=2).tolist()\n",
        "polarized_match: the sum's column is not compared with T's",
    ),
    (
        "exactlin.py",
        "    g = gcd(n, d)\n    return n // g, d // g\n",
        "    g = gcd(n, d)\n    return n, d\n",
        "_rat_pair: a literal such as 2/4 enters unreduced, so N / D is not in lowest terms",
    ),
    (
        "exactlin.py",
        "        if d > 1:\n            if content is None:\n"
        "                content = int(np.gcd.reduce(n, axis=None))\n"
        "            g = gcd(content, d)  # d for a zero n, whose D is then 1\n"
        "            if g > 1:\n                n, d = (n // g if content else n), d // g\n"
        "        bound = _bound(n) if n.dtype == object else None\n",
        "        bound = _bound(n) if n.dtype == object else None\n"
        "        if d > 1:\n            if content is None:\n"
        "                content = int(np.gcd.reduce(n, axis=None))\n"
        "            g = gcd(content, d)  # d for a zero n, whose D is then 1\n"
        "            if g > 1:\n                n, d = (n // g if content else n), d // g\n",
        "_of: the bound is taken before the content is divided out, so a result that fits"
        " int64 stays Python ints",
    ),
    (
        "exactlin.py",
        "    if not (gj == -gj.swapaxes(1, 2)).all():\n        return None\n",
        "    if False:\n        return None\n",
        "skew_combs: the stacked skew test always passes, so algebra_from_J takes a J that is"
        " not skew",
    ),
    (
        "standardform.py",
        "    pairs = zip(ps, map(SignatureForm, eta_pairings(a.structure, ps)))\n",
        "    pairs = zip(ps, map(SignatureForm, eta_pairings(a.structure,"
        " [(p + 1) % (a.m + 1) for p in ps])))\n",
        "_trace_forms: the Gram of p is built from the sign rows of p + 1",
    ),
    (
        "exactlin.py",
        "        n = np.zeros((len(rels), cols), dtype=object if bound >= _INT64_BOUND else np.int64)\n",
        "        n = np.zeros((len(rels), cols), dtype=np.int64)\n",
        "from_relations: int64 rows even past 2**62, where N must hold Python ints",
    ),
    (
        "exactlin.py",
        "        pos, neg = int(np.count_nonzero(diag > 0)), int(np.count_nonzero(diag < 0))\n",
        "        pos, neg = int(np.count_nonzero(diag >= 0)), int(np.count_nonzero(diag < 0))\n",
        "signature: the diagonal read counts a zero entry as positive",
    ),
    (
        "exactlin.py",
        "            [({i: d if x > 0 else -d}, abs(x)) for i, x in enumerate(vals)], n\n",
        "            [({i: 1 if x > 0 else -1}, abs(x)) for i, x in enumerate(vals)], n\n",
        "inverse: the diagonal read drops D, giving 1 / N_ii",
    ),
    (
        "exactlin.py",
        "    n[k, i, j], n[k, j, i] = -signs[j], signs[i]\n",
        "    n[k, i, j], n[k, j, i] = -signs[i], signs[j]\n",
        "phi_matrices: nu_i and nu_j are swapped in so(p,q)'s integer basis",
    ),
    (
        "nilpotent.py",
        "            if span is None or span.basis != self.structure:\n",
        "            if span is None:\n",
        "NilpotentAlgebra2: the adapted check trusts any handed-on span without comparing"
        " its basis to the structure",
    ),
    (
        "exactlin.py",
        "        if len(images) != self.dim:\n"
        '            raise DimensionMismatchError(f"{len(images)} images of a {self.dim}-dim basis")\n'
        "        if any(m.rows != self.ambient_dim or m.cols != self.ambient_dim for m in images):\n"
        '            raise DimensionMismatchError(f"an image is not {self.ambient_dim}x{self.ambient_dim}")\n',
        "",
        "MatrixSubspace.mapped: the count and shape of the images go unchecked",
    ),
    (
        "nilpotent.py",
        "    structure, adapted = tuple(structure), n > 0 and w.dim == n\n",
        "    structure, adapted = tuple(structure), n > 0 and True\n",
        "algebra_from_J: the output is tagged adapted without comparing dim W with n",
    ),
    (
        "nilpotent.py",
        '        adapted = fields["n"] > 0 and span.dim == fields["n"]\n',
        '        adapted = fields["n"] > 0 and True\n',
        "NilpotentAlgebra2.tagged: adapted is chosen without comparing the span's dimension"
        " with n",
    ),
    (
        "standardform.py",
        "    if not all(in_so(b, p, q) for b in w1.basis):\n",
        "    if False:\n",
        "orbit_witness_check: a W1 outside so(p,q) reaches gl_action, whose certificate"
        " then blames the program",
    ),
    (
        "nilpotent.py",
        "    if not independent_subset(m, _j_basis(a1)).equals(independent_subset(m, _j_basis(a2))):\n",
        "    if False:\n",
        "scaling_isomorphism: two algebras are compared without checking that they share"
        " a J-image",
    ),
    (
        "nilpotent.py",
        "    if any(lam < 0 for lam in roots):\n",
        "    if False:\n",
        "scaling_isomorphism: a negative root of S, a causal flip, is not rejected",
    ),
    (
        "triple.py",
        '    certify("h_pm lies outside L", None not in rels)\n',
        '    certify("h_pm lies outside L", True)\n',
        "_ideal_split: h_pm is not checked to lie in L",
    ),
    (
        "triple.py",
        '    certify("h_+ and h_- do not make a basis of L", l.dim == 6 and rank(*parts) == 6)\n',
        '    certify("h_+ and h_- do not make a basis of L", True)\n',
        "_ideal_split: h_+ and h_- are not checked to make a basis of L",
    ),
    (
        "triple.py",
        '    certify("h_+ and h_- do not commute",'
        " _brackets_inside(ads, *parts, RationalMatrix.zeros(0, 0)))\n",
        '    certify("h_+ and h_- do not commute", True)\n',
        "_ideal_split: h_+ and h_- are not checked to commute",
    ),
    (
        "triple.py",
        '    certify("split summand is not an ideal of L", ideals)\n',
        '    certify("split summand is not an ideal of L", True)\n',
        "_ideal_split: the summands are not checked to be ideals of L",
    ),
    (
        "exactlin.py",
        "        p = self.at[j]\n",
        "        p = self.at[j + 1]\n",
        "_RowText: a row's one nonzero text goes in one column right of its own",
    ),
    (
        "exactlin.py",
        "        row = self[key] = self.zero[:p] + t + self.zero[p + 1 :]\n",
        "        row = self[key] = self.setdefault(j, self.zero[:p] + t + self.zero[p + 1 :])\n",
        "_RowText: the one-nonzero row memo is keyed by column alone, dropping the entry text",
    ),
    (
        "clifford.py",
        "    nb = len(b_cols)\n",
        "    nb = len(a_cols)\n",
        "_kron: the index Kronecker product strides rows and columns by the left factor's size",
    ),
    (
        "clifford.py",
        "        return [new[cols[i]] for i in order], [vals[i] for i in order]\n",
        "        return [order[cols[i]] for i in order], [vals[i] for i in order]\n",
        "_sort_form: columns are renamed by the sort order itself, not by its inverse",
    ),
    (
        "exactlin.py",
        "        if len(vals) != n or sorted(cols) != list(range(n)):\n",
        "        if len(vals) != n:\n",
        "signed_permutation: a repeated column is not rejected, so a non-monomial form is attached",
    ),
    (
        "clifford.py",
        "        if len(eta) != self.module_dim or {*eta} - {1, -1}"
        " or form != RationalMatrix.diag(eta):\n",
        "        if False:\n",
        "CliffordModule: a module form that is not diag(+-1) of size N is not rejected",
    ),
    (
        "exactlin.py",
        "                    rows[i * r : i * r + r] = texts[k * r : k * r + r]\n",
        "                    rows[i * r : i * r + r] = texts[k * r + 1 : k * r + r + 1]\n",
        "StackText: a matrix of a denominator group takes its rows one row late in the stack",
    ),
    (
        "cli.py",
        "            type(v) is t for v in x\n",
        "            isinstance(v, t) for v in x\n",
        "_write_value: a list of ints with a bool in it is one join, the bool printed as 1 or 0",
    ),
    (
        "triple.py",
        "        table[a][b], table[b][a] = (num, den), ({k: -x for k, x in num.items()}, den)\n",
        "        table[a][b], table[b][a] = (num, den), (num, den)\n",
        "_pair_table: the W x W block holds [w_a, w_b] for [w_b, w_a], not its negative",
    ),
    (
        "cli.py",
        '    "free": (_cmd_free, [("p", int, "P"), ("q", int, "Q")], _OUTPUT),\n',
        '    "free": (_cmd_free, [("p", int, "P"), ("q", str, "Q")], _OUTPUT),\n',
        "_VERBS: free reads its Q as text, not as an integer",
    ),
    (
        "cli.py",
        "    if not (digits.isascii() and digits.isdigit() and len(digits) <= 4000):"
        '  # int() takes " 7" too\n',
        '    if not (digits.isdigit() and len(digits) <= 4000):  # int() takes " 7" too\n',
        "_integer: an integer field or seed of another script's digits, such as Arabic-Indic"
        " 7, reads as an int",
    ),
    (
        "standardform.py",
        "    return [_standard(p, q, w, form) for (p, q), w, (_, form) in zip(ps, twists, kept)]\n",
        "    return [_standard(p, q, w, form) for (p, q), w, (_, form)"
        " in zip(ps, twists, kept[1:] + kept[:1])]\n",
        "_standard_targets: realization i is handed the trace form of realization i + 1",
    ),
    (
        "standardform.py",
        "    ma = algebra_from_J(w, SignatureForm.standard(p, q), form)\n",
        "    ma = algebra_from_J(w, SignatureForm.standard(q, p), form)\n",
        "_standard: the form on V is eta_{q,p}, not eta_{p,q}",
    ),
    (
        "errors.py",
        "    if not ok:\n",
        "    if False:\n",
        "certify: no certificate ever fails",
    ),
    (
        "cli.py",
        "3 if isinstance(exc, CertificateError) else 2\n",
        "2\n",
        "main: a failed certificate exits 2, as bad input does",
    ),
]


def _enclosing_names(text: str, line: int) -> list[str]:
    """The names of the functions whose lines hold ``line``, outermost first,
    special methods (``__init__``) left out; the classes' names if that
    leaves none."""
    nodes = [
        node
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.lineno <= line <= node.end_lineno
    ]
    classes = [node.name for node in nodes if isinstance(node, ast.ClassDef)]
    functions = [node.name for node in nodes if not isinstance(node, ast.ClassDef)]
    return [f for f in functions if not f.startswith("__")] or classes


def _callers(package: Path, names: list[str]) -> list[str]:
    """The package functions whose body names one of ``names``, one level up,
    special methods left out: a method as ``Class.method``, as tests name it.  A
    mutated function that no test file names is reached through them."""
    found = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {
            node: cls.name + "."
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.name.startswith("__")
                and any(getattr(n, "id", getattr(n, "attr", None)) in names for n in ast.walk(node))
            ):
                found.add(owner.get(node, "") + node.name)
    return sorted(found - set(names))


def _naming(tests: Path, names: list[str]) -> list[str]:
    """The test files, relative to the copy's root, that name one of ``names``."""
    if not names:
        return []
    word = re.compile(r"\b(%s)\b" % "|".join(map(re.escape, names)))
    return sorted(
        str(path.relative_to(tests.parent))
        for path in tests.glob("test_*.py")
        if word.search(path.read_text(encoding="utf-8"))
    )


def _run(index: int, entry) -> tuple[bool, str]:
    """Apply one mutant to a temporary copy and run the suite: (killed, by
    "first" for the likely killers, "suite" for the whole suite)."""
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
        mutated = text.replace(old, new)
        target.write_text(mutated, encoding="utf-8")
        names = _enclosing_names(mutated, mutated.count("\n", 0, text.index(old)) + 1)
        first = _naming(tmp / "tests", names) or _naming(
            tmp / "tests", _callers(tmp / "src" / "nilforge", names)
        )
        (tmp / "mutant_profile.py").write_text(PROFILE, encoding="utf-8")
        path = os.pathsep.join([str(tmp / "src"), str(tmp)])
        env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")

        def pytest(*files: str) -> int:
            return subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
                + ["-p", "mutant_profile"]
                + ["--deselect", TEXT_CHECK, *files],
                cwd=tmp,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            ).returncode

        # 1: a test failed, 2: collection failed; the whole suite fails then too
        if first and pytest(*first) in (1, 2):
            return True, "first"
        return pytest() != 0, "suite"


def main(argv: list[str]) -> int:
    chosen = [int(a) for a in argv] if argv else range(len(MUTANTS))
    survived = 0
    for index in chosen:
        entry = MUTANTS[index]
        start = time.perf_counter()
        killed, by = _run(index, entry)
        survived += not killed
        verdict = "killed" if killed else "SURVIVED"
        took = time.perf_counter() - start
        print(f"{index} {verdict:8} {took:5.1f}s {by:5}  {entry[0]}: {entry[3]}")
    print(f"{len(chosen) - survived} killed, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
