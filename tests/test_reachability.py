"""Which package functions the verbs reach.

A fixed list of verb calls runs in process under ``sys.settrace``, with every
``lru_cache`` of the package cleared first, so that a memoized function is
entered too.  The package functions that no call enters must be exactly the
ones listed in ``UNREACHED``, each with the reason it stays: a new function
that no verb enters fails until it is listed, and a listed function that a
verb starts to reach fails until it is taken off the list.
"""

import inspect
import io
import json
import sys
import types
from contextlib import redirect_stdout
from pathlib import Path

import nilforge
from nilforge import cli, clifford, exactlin, standardform, triple

PACKAGE = Path(nilforge.__file__).resolve().parent

# {module.qualname: why it stays although no verb enters it}
UNREACHED = {
    # references that a test checks a kept route against
    "exactlin.solve": "the solver test_kernel_paths checks inverse against",
    "exactlin.jsonify": "plain JSON: every to_json, and the route canonical_json is held to",
    "exactlin.EntriesText.lists": "a matrix's entries as jsonify gives them",
    "exactlin.RationalMatrix.to_json": "a matrix's plain JSON; the writer reads _json_parts",
    "exactlin.SignatureForm.to_json": "a form's plain JSON; the writer reads _json_parts",
    "exactlin.MatrixSubspace.to_json": "a subspace's plain JSON; the writer reads _json_parts",
    "clifford.CliffordModule.to_json": "a module's plain JSON; the writer reads _json_parts",
    "nilpotent.NilpotentAlgebra2.to_json": "an algebra's plain JSON; the writer reads _json_parts",
    "exactlin.RationalMatrix.__repr__": "a matrix's text for debugging and test failures",
    "cli._write_final": "the writer's route for a to_json result, which only a caller's object has",
    # results of the paper that the library offers
    "nilpotent.scaling_isomorphism": "the isomorphism question for two metrics on one J-image",
    "nilpotent._rational_sqrt": "scaling_isomorphism's square roots of the eigenvalues of S",
    "exactlin.char_poly": "the characteristic polynomial of S in scaling_isomorphism",
    "exactlin.rational_roots": "the rational eigenvalues of S in scaling_isomorphism",
    "exactlin._poly_eval": "rational_roots' test of a candidate root",
    "exactlin._divisors": "rational_roots' candidate numerators and denominators",
    "nilpotent.abelian_factor": "the split of the center into [g, g] and an abelian factor",
    "nilpotent.derived_ideal": "the derived ideal [g, g] that abelian_factor splits off",
    "exactlin.rref": "the pivot columns of derived_ideal",
    "nilpotent.bracket": "the bracket of two coordinate vectors, the algebra's own operation",
    "nilpotent.j_map": "J_z from the bracket, the inverse of algebra_from_J",
    "exactlin.lin_comb": "the one combination of j_map and MatrixSubspace.element",
    "lattice.integer_rescale": "the rescaled algebra d C^k with integer constants",
    "standardform.free_bracket": "the bracket of the free metric algebra F_2(p,q)",
    "standardform.apply_free_automorphism": "the automorphism of F_2(p,q) that (A, s_hom) induces",
    "standardform.quotient_by_center_subspace": "a standard algebra modulo a center subspace",
    "nilpotent.NilpotentAlgebra2.tagged": "the adapted-or-raw tag of quotient_by_center_subspace",
    "triple.triple_center": "the center of a Lie triple system",
    "triple.generated_algebra": "L = W + [W, W], certified, for any W",
    "triple.killing_form": "the Killing form of any L",
    "triple.decomposition_checks": "the center and [L, L] of L and the direct-sum results",
    "triple.theta_closure": "the closure of a twist pair under theta and transpose",
    "triple.theta_closure.<locals>.theta": "theta(X) = eta X eta of theta_closure",
    "triple.generated_ideal": "the ideal that one element of L generates",
    "triple.ideal_probe": "the seeded probe of any L; the verb probes through clifford_ideal_probe",
    "exactlin._closure": "the probe's exact fallback for a trial left open, and generated_ideal",
    # the basic matrix, form and subspace API
    "exactlin.rat": "a rational from an int, Fraction or literal",
    "exactlin.RationalMatrix.__rmul__": "c * M",
    "exactlin.RationalMatrix.__sub__": "M - N",
    "exactlin.RationalMatrix.apply": "M v",
    "exactlin.RationalMatrix.row": "row i of M",
    "exactlin.RationalMatrix.column": "column j of M",
    "exactlin.RationalMatrix.entries": "the entries of M, row-major",
    "exactlin.RationalMatrix.trace": "tr M",
    "exactlin.SignatureForm.__eq__": "equality of forms",
    "exactlin.SignatureForm.pair": "the form on two vectors",
    "exactlin.SignatureForm.scaled": "c times a form",
    "exactlin.SpanBuilder.coords": "the coordinates of a vector over the added ones",
    "exactlin.MatrixSubspace.coords": "the coordinates of a matrix over the basis",
    "exactlin.MatrixSubspace.element": "the matrix with given coordinates over the basis",
    "nilpotent.MetricAlgebra.n": "the center dimension of a metric algebra",
    "clifford.CliffordModule.from_json": "a module read back from its JSON; no verb reads one",
}


def _matrix(rows) -> dict:
    return {"rows": len(rows), "cols": len(rows[0]), "entries": rows}


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _verbs(tmp: Path) -> list[list[str]]:
    """The verb calls, in order: ``build -o`` writes the n_{1,1} file that
    ``reduce`` and ``lattice`` read after it."""
    n11 = str(tmp / "n11.json")
    # the Heisenberg algebra, its constants known only up to scale
    rot = _matrix([["0", "1"], ["-1", "0"]])
    symbolic = _write(tmp / "h3.json", {"m": 2, "n": 1, "C": [rot["entries"]], "symbolic": True})
    # A W A^eta = W for A = [[1, 1], [0, 1]] and W = so(2), as det A = 1
    a = _write(tmp / "a.json", _matrix([["1", "1"], ["0", "1"]]))
    w = _write(tmp / "w.json", {"ambient": 2, "basis": [rot]})
    return [
        ["clifford", "2", "1"],
        ["build", "1", "1", "-o", n11],
        ["reduce", n11],
        ["lattice", n11],
        ["reduce", symbolic],
        ["lattice", symbolic],
        ["lattice", "--pseudo-h", "3", "1"],
        ["free", "3", "2"],
        ["triple", "3", "0"],
        ["triple", "1", "2"],
        ["triple", "2", "2"],
        ["examples"],
        ["orbit-check", a, w, w, "--p", "2", "--q", "0"],
        ["clifford", "9", "0"],  # rejected: r+s over the cap
    ]


def _package_functions() -> set[str]:
    """module.qualname of every named function in the package's source."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while todo:
            code = todo.pop()
            todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
            # a function's code has new locals; a class body's and a module's do not
            if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
                found.add(f"{path.stem}.{code.co_qualname}")
    return found


def _entered(calls) -> set[str]:
    """module.qualname of every package function that the calls enter, each
    memo of the package cleared first."""
    for memoized in (
        clifford.build_module,
        clifford.verify_module,
        standardform.free_algebra,
        triple._clifford_generated,
        exactlin.eta,
        exactlin._eta_signs,
        exactlin._rat_pair,
    ):
        memoized.cache_clear()
    codes = set()

    def tracer(frame, event, arg):
        codes.add(frame.f_code)  # a global trace function sees call events only

    before = sys.gettrace()
    sys.settrace(tracer)
    try:
        for argv in calls:
            with redirect_stdout(io.StringIO()):
                cli.main(argv)
    finally:
        sys.settrace(before)
    paths = {name: Path(name).resolve() for name in {c.co_filename for c in codes}}
    return {
        f"{paths[c.co_filename].stem}.{c.co_qualname}"
        for c in codes
        if paths[c.co_filename].parent == PACKAGE
    }


def test_the_unreached_functions_are_the_listed_ones(tmp_path):
    unreached = _package_functions() - _entered(_verbs(tmp_path))
    assert sorted(unreached - UNREACHED.keys()) == [], "unreached and not listed"
    assert sorted(UNREACHED.keys() - unreached) == [], "listed but reached"


def test_every_listed_function_has_a_reason():
    assert all(type(why) is str and why.strip() for why in UNREACHED.values())
