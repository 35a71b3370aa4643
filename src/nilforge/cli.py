"""Command-line front end.

Verbs: clifford, build, reduce, free, triple, lattice, orbit-check,
examples.  All output is canonical JSON (sorted keys, 2-space indent,
"a/b" rationals) on stdout.  Exit codes: 0 success, 1 a verification check
ran and failed, 2 usage or input error (the package's own error codes), 3
an internal fault (ERR_INTERNAL: any other exception, with its traceback on
stderr).  The environment variable NILFORGE_SEED seeds the randomized ideal
probe of the triple verb.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
import traceback
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote

from .catalog import BY_NAME
from .clifford import CliffordSignature, build_module, verify_module
from .errors import BadInputError, NilforgeError
from .exactlin import (
    EntriesText,
    MatrixSubspace,
    RationalMatrix,
    StackText,
    rat_to_str,
    signature,
    trace_gram,
)
from .lattice import lattice_verdict, pseudo_H_algebra, pseudo_H_pipeline_report
from .nilpotent import NilpotentAlgebra2, is_pseudo_H_type
from .standardform import (
    eta_twist,
    find_realizations,
    free_algebra,
    free_isomorphism,
    orbit_witness_check,
    reduction_isomorphism,
    structure_space,
)
from .triple import clifford_ideal_probe, clifford_triple_report


def canonical_json(obj) -> str:
    """``json.dumps(exactlin.jsonify(obj), indent=2, sort_keys=True) + "\\n"``, byte for byte,
    in one walk of the report: a matrix's entries are printed from (N, D) by
    ``EntriesText``, and a list of same-shape matrices by ``StackText``, sharing
    one row memo for the call, and no JSON is built."""
    out = _Text()
    _write_json(obj, "\n", out)
    out.append("\n")
    return "".join(out)


class _Text(list):
    """The pieces of one canonical text, and the row memo of its matrices."""

    __slots__ = ("memo",)

    def __init__(self):
        self.memo = {}


# the types that _write_json hands to _write_value unconverted, besides int and str
_AS_THEY_ARE = (type(None), list, tuple, EntriesText, StackText)


def _write_json(x, nl: str, out: _Text) -> None:
    """Append the text of x as ``exactlin.jsonify`` converts it, lines broken by ``nl``.  An
    object with ``_json_parts`` (a matrix, form, subspace, module or algebra) gives
    its ``to_json`` object with matrices left as they are; any other ``to_json``
    result is final, and is written as it is."""
    t = type(x)
    if t is dict:
        if not all(type(k) is str for k in x):
            x = {str(k): v for k, v in x.items()}
    elif t not in _AS_THEY_ARE and not isinstance(x, (int, str)):
        parts = getattr(t, "_json_parts", None)
        if parts is not None:
            x = parts(x)
        elif isinstance(x, Fraction):
            x = rat_to_str(x)
        elif getattr(x, "to_json", None) is not None:
            return _write_final(x.to_json(), nl, out)
        elif dataclasses.is_dataclass(x) and not isinstance(x, type):
            x = {f.name: getattr(x, f.name) for f in dataclasses.fields(x)}
        elif isinstance(x, dict):
            x = {str(k): v for k, v in x.items()}
    _write_value(x, nl, out, _write_json)


def _write_final(x, nl: str, out: _Text) -> None:
    """Append the text of x, which holds only JSON values."""
    _write_value(x, nl, out, _write_final)


def _write_value(x, nl: str, out: _Text, write_item) -> None:
    """Append x's JSON text, its items written by ``write_item``, for one join
    (json's indent encoder is pure Python).  A list of strings, of ints or of
    Fractions is one join, and an ``EntriesText`` or ``StackText`` gives its own
    pieces.  A float, a non-str key or any other type is a TypeError."""
    inner = nl + "  "  # the line break of x's items
    if isinstance(x, str):
        out.append(_quote(x))
    elif x is None or isinstance(x, bool):
        out.append("null" if x is None else "true" if x else "false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif type(x) is EntriesText or type(x) is StackText:
        out += x.pieces(nl, out.memo)
    elif isinstance(x, dict) and x:
        for i, k in enumerate(sorted(x)):  # _quote rejects a non-str key
            out.append(("," if i else "{") + inner + _quote(k) + ": ")
            write_item(x[k], inner, out)
        out.append(nl + "}")
    elif isinstance(x, (list, tuple)) and x:
        t = type(x[0])
        if t is str:
            texts = map(_quote, x)  # an item that is no string raises TypeError
        # every item of type t, so a bool takes no int join; a Fraction in a
        # to_json result is no JSON value, so that list is written item by item
        elif (t is int or t is Fraction and write_item is not _write_final) and all(
            type(v) is t for v in x
        ):
            texts = map(int.__repr__, x) if t is int else ['"' + rat_to_str(v) + '"' for v in x]
        else:
            texts = None  # join(None) raises TypeError
        try:  # a list of strings, of ints or of Fractions is one join
            out.append("[" + inner + ("," + inner).join(texts) + nl + "]")
        except TypeError:  # any other list: item by item
            for i, v in enumerate(x):
                out.append(("," if i else "[") + inner)
                write_item(v, inner, out)
            out.append(nl + "]")
    elif isinstance(x, (list, tuple, dict)):
        out.append("{}" if isinstance(x, dict) else "[]")
    else:
        raise TypeError(f"cannot write {type(x).__name__} as JSON")


def load_algebra(path: str) -> NilpotentAlgebra2:
    return NilpotentAlgebra2.from_json(_load_json(path))


def save_algebra(a: NilpotentAlgebra2, path: str) -> None:
    _write_file(path, canonical_json(a))


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise BadInputError(f"cannot write {path}: {exc}") from exc


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise BadInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BadInputError(
            f"parse error in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise BadInputError(f"{path} is not UTF-8 text: {exc}") from exc
    except ValueError as exc:  # an integer literal over int()'s digit limit
        raise BadInputError(f"bad number in {path}: {exc}") from exc


def _emit(report, output_path: str | None) -> None:
    """Write the report to stdout (and output_path), raising BrokenPipeError here
    when the reader closes the pipe: a write it cuts short is retried for the rest."""
    text = canonical_json(report)
    if output_path:
        _write_file(output_path, text)
    out = sys.stdout
    if not hasattr(out, "buffer"):  # an in-process capture, such as a StringIO
        out.write(text)
        return
    out.flush()
    data = memoryview(text.encode(out.encoding))
    while data:
        written = out.buffer.write(data)
        if not written:
            raise BrokenPipeError("stdout takes no more bytes")
        data = data[written:]
    out.buffer.flush()


def _cmd_clifford(args) -> int:
    module = build_module(CliffordSignature(args.r, args.s))
    report = verify_module(module)
    _emit({"module": module, "verification": report}, args.output)
    return 0 if report["passed"] else 1


def _cmd_build(args) -> int:
    module = build_module(CliffordSignature(args.r, args.s))
    ma = pseudo_H_algebra(module)
    check = is_pseudo_H_type(ma)
    if args.output:
        save_algebra(ma.algebra, args.output)
    _emit({"algebra": ma.algebra, "pseudo_H_check": check}, None)
    return 0 if check["verdict"] else 1


def _cmd_reduce(args) -> int:
    a = load_algebra(args.input)
    realizations = find_realizations(a)
    reductions = []
    # tr(eta C eta C') = tr(C eta C' eta): the left twist that the reduction
    # uses has the Gram, hence the signature, of the right twist found here
    for real in realizations:
        t, target = reduction_isomorphism(a, real["p"], real["q"])
        reductions.append(
            {
                "p": real["p"],
                "q": real["q"],
                "signature": real["signature"],
                "T": t,
                "standard_structure": StackText(target.algebra.structure, objects=True),
            }
        )
    _emit({"realizations": realizations, "reductions": reductions}, args.output)
    return 0


def _cmd_free(args) -> int:
    std = free_algebra(args.p, args.q)
    iso = free_isomorphism(args.p, args.q)
    _emit({"algebra": std.algebra, "gram_W": std.gram_W, "isomorphism": iso}, args.output)
    return 0 if iso["certified"] else 1


def _cmd_triple(args) -> int:
    text = os.environ.get("NILFORGE_SEED", "0")
    if not re.fullmatch(r"[+-]?[0-9]{1,4000}", text):  # int() takes " 7 " and "1_0" too
        raise BadInputError(f"NILFORGE_SEED must be ASCII [+-]digits, at most 4000, not {text!r}")
    seed = int(text)
    module = build_module(CliffordSignature(args.r, args.s))
    report = clifford_triple_report(module)
    probe = clifford_ideal_probe(module, seed)
    _emit({"report": report, "ideal_probe": probe, "seed": seed}, args.output)
    return 0 if report.is_triple else 1


def _cmd_lattice(args) -> int:
    if args.pseudo_h is not None and args.input is not None:
        raise BadInputError("lattice takes an input file or --pseudo-h R S, not both")
    if args.pseudo_h is not None:
        r, s = args.pseudo_h
        report = pseudo_H_pipeline_report(r, s)
        verdict = report["verdict"]
        out = {k: v for k, v in report.items() if k != "standard_algebra"}
        structure = report["standard_algebra"].algebra.structure
        out["standard_structure"] = StackText(structure, objects=True)
        _emit(out, args.output)
        return 0 if verdict.rescaled_constants_integer else 1
    if args.input is None:
        raise BadInputError("lattice needs an input file or --pseudo-h R S")
    a = load_algebra(args.input)
    verdict = lattice_verdict(a)
    _emit(verdict, args.output)
    if verdict.status == "AdmitsLattice" and not verdict.rescaled_constants_integer:
        return 1
    return 0


def _cmd_orbit_check(args) -> int:
    a = RationalMatrix.from_json(_load_json(args.matrix))
    w1 = MatrixSubspace.from_json(_load_json(args.source))
    w2 = MatrixSubspace.from_json(_load_json(args.target))
    match = orbit_witness_check(a, w1, w2, args.p, args.q)
    _emit({"match": match, "p": args.p, "q": args.q}, args.output)
    return 0 if match else 1


def _example_pseudo_h(name: str) -> dict:
    ma = BY_NAME[name]()
    c = structure_space(ma.algebra)
    twists = []
    for p, q in ((2, 2), (3, 1), (1, 3)):
        d = eta_twist(c, p, q, "right")
        gram = trace_gram(d)
        sp, sq, nullity = signature(gram)
        twists.append(
            {
                "p": p,
                "q": q,
                "D": StackText(d.basis, objects=True),
                "gram": gram,
                "signature": [sp, sq, nullity],
            }
        )
    return {
        "structure": StackText(ma.structure, objects=True),
        "form_V": ma.form_V,
        "form_Z": ma.form_Z,
        "twists": twists,
    }


def _example_free() -> list[dict]:
    out = []
    for m in (2, 3, 4):
        for p in range(m + 1):
            iso = free_isomorphism(p, m - p)
            out.append(
                {
                    "p": p,
                    "q": m - p,
                    "gram_diagonal": iso["gram_diagonal"],
                    "nu_signs": iso["nu_signs"],
                    "certified": iso["certified"],
                }
            )
    return out


def _cmd_examples(args) -> int:
    names = [args.name] if args.name != "all" else ["n20", "n11", "n02", "heisenberg", "free"]
    report = {}
    for name in names:
        if name in ("n20", "n11", "n02"):
            report[name] = _example_pseudo_h(name)
        elif name == "heisenberg":
            ma = BY_NAME["heisenberg"]()
            report[name] = {
                "algebra": ma.algebra,
                "realizations": find_realizations(ma.algebra),
            }
        elif name == "free":
            report[name] = _example_free()
        else:
            raise BadInputError(f"unknown example {name!r}")
    _emit(report, args.output)
    return 0


@lru_cache(maxsize=None)
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


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    out = sys.stdout
    try:
        return args.func(args)
    except BrokenPipeError:  # the reader closed stdout: nothing more goes there
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())  # nor at the exit-time flush
        out, code, detail, status = sys.stderr, "ERR_BAD_INPUT", "stdout was closed", 2
    except NilforgeError as exc:
        code, detail, status = exc.code, str(exc), 2
    except Exception as exc:  # a fault of the program, not of its input
        traceback.print_exc()
        code, detail, status = "ERR_INTERNAL", f"{type(exc).__name__}: {exc}", 3
    out.write(json.dumps({"error": code, "detail": detail}, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
