"""Command-line front end: ``nilforge VERB ARGUMENTS``, each verb's arguments one row of
``_VERBS``, all printed by ``-h`` or ``--help`` (stdout, exit 0).  Options may come anywhere
after the verb, ``--`` ends them, ``--output=FILE`` joins a value, and a negative integer is a
value.  A usage error, argparse's ``--out`` and ``-oFILE`` forms among them, writes its text
to stderr, nothing to stdout, and exits 2.  Reading argv imports and builds nothing; the
README's CLI section gives its cost.  Output is canonical JSON (sorted keys, 2-space indent,
"a/b" rationals) on stdout.  Exit codes: 0 success, 1 a verification check ran and failed, 2
usage or input error (the package's own error codes), 3 an internal fault: exit 3 for a failed
certificate (ERR_HOMOMORPHISM from ``errors.certify``, its one JSON error line on stdout as for
exit 2), and for any other exception (ERR_INTERNAL, with its traceback on stderr).
NILFORGE_SEED seeds the randomized ideal probe of the triple verb.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import traceback
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from types import SimpleNamespace

from .catalog import BY_NAME
from .clifford import CliffordSignature, build_module, verify_module
from .errors import BadInputError, CertificateError, NilforgeError
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
    reductions,
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
    found = reductions(load_algebra(args.input))
    texts = [StackText(target.algebra.structure, objects=True) for _, _, target in found]
    steps = [{**real, "T": t, "standard_structure": x} for (real, t, _), x in zip(found, texts)]
    _emit({"realizations": [real for real, _, _ in found], "reductions": steps}, args.output)
    return 0


def _cmd_free(args) -> int:
    std = free_algebra(args.p, args.q)
    iso = free_isomorphism(args.p, args.q)
    _emit({"algebra": std.algebra, "gram_W": std.gram_W, "isomorphism": iso}, args.output)
    return 0 if iso["certified"] else 1


def _cmd_triple(args) -> int:
    try:
        seed = _integer(os.environ.get("NILFORGE_SEED", "0"))
    except ValueError as exc:
        raise BadInputError(f"NILFORGE_SEED {exc}") from None
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
            kept = {k: iso[k] for k in ("gram_diagonal", "nu_signs", "certified")}
            out.append({"p": p, "q": m - p, **kept})
    return out


def _cmd_examples(args) -> int:
    names = [args.name] if args.name != "all" else ["n20", "n11", "n02", "heisenberg", "free"]
    report = {}
    for name in names:
        if name in ("n20", "n11", "n02"):
            report[name] = _example_pseudo_h(name)
        elif name == "heisenberg":
            ma = BY_NAME["heisenberg"]()
            report[name] = {"algebra": ma.algebra, "realizations": find_realizations(ma.algebra)}
        elif name == "free":
            report[name] = _example_free()
        else:
            raise BadInputError(f"unknown example {name!r}")
    _emit(report, args.output)
    return 0


def _integer(text: str) -> int:
    """An optional ASCII sign and 1 to 4000 ASCII digits as an int, else a ValueError."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit() and len(digits) <= 4000):  # int() takes " 7" too
        raise ValueError(f"must be ASCII [+-]digits, at most 4000, not {text!r}")
    return int(text)


# verb: (handler, positionals, options), each positional (attribute, type, METAVAR) and
# each option flag: (attribute, type, FLAG METAVARS), with a default if it may be left out
_OUTPUT = dict.fromkeys(("-o", "--output"), ("output", str, "-o FILE", None))
_READ = {int: _integer, str: str}  # a field's value from its text, by its type in _VERBS
_RS = [("r", int, "R"), ("s", int, "S")]
_VERBS = {
    "clifford": (_cmd_clifford, _RS, _OUTPUT),
    "build": (_cmd_build, _RS, _OUTPUT),
    "reduce": (_cmd_reduce, [("input", str, "FILE")], _OUTPUT),
    "free": (_cmd_free, [("p", int, "P"), ("q", int, "Q")], _OUTPUT),
    "triple": (_cmd_triple, _RS, _OUTPUT),
    "lattice": (
        _cmd_lattice,
        [("input", str, "FILE", None)],
        {**_OUTPUT, "--pseudo-h": ("pseudo_h", int, "--pseudo-h R S", None)},
    ),
    "orbit-check": (
        _cmd_orbit_check,
        [("matrix", str, "A"), ("source", str, "W1"), ("target", str, "W2")],
        {**_OUTPUT, "--p": ("p", int, "--p P"), "--q": ("q", int, "--q Q")},
    ),
    "examples": (_cmd_examples, [("name", str, "NAME", "all")], _OUTPUT),
}
_USAGE = "usage (-h or --help prints this):\n" + "".join(
    f"  nilforge {verb} "
    + " ".join(x[2] if len(x) == 3 else f"[{x[2]}]" for x in dict.fromkeys([*pos, *opts.values()]))
    + "\n"
    for verb, (_, pos, opts) in _VERBS.items()
)


def _is_value(t: str, options: dict) -> bool:
    """Whether argparse read t as a value, not as an option, of a verb with these options."""
    if t[:1] != "-" or t == "-":
        return True
    body = t[1:-1] if t[-1] == "\n" else t[1:]
    if body.replace(".", "", 1).isdecimal() and body[-1:] != ".":  # ^-\d+$|^-\d*\.\d+$
        return True
    # a text with a space, unless argparse read it as an option: FLAG=... or -o..., -h...
    return " " in t and t[:2] not in ("-o", "-h") and t.partition("=")[0] not in options


def _parse(argv) -> SimpleNamespace | None:
    """The fields argparse gave the verb's handler, read from argv by the verb's row of
    ``_VERBS``, or None for -h or --help; a usage error raises ValueError."""
    head = argv[: argv.index("--")] if "--" in argv else argv
    if "-h" in head or "--help" in head:  # wherever it is, as argparse read it
        return None
    verb = argv[0] if argv else None
    if verb not in _VERBS:
        raise ValueError(f"unknown verb {verb!r}" if argv else "no verb given")
    func, positionals, options = _VERBS[verb]
    fields = {"verb": verb, "func": func}
    fields.update((name, d[0]) for name, _, _, *d in (*positionals, *options.values()) if d)
    free, rest = [], iter(argv[1:])  # the positionals' texts; the arguments not yet read
    for t in rest:
        if _is_value(t, options):
            free.append(t)
        elif t == "--":  # all the rest are values
            free += rest
        elif t.partition("=")[0] not in options:
            raise ValueError(f"unknown option {t!r} for {verb}")
        else:  # FLAG VALUE..., or FLAG=VALUE for one value
            flag, eq, text = t.partition("=")
            name, kind, metavars = options[flag][:3]
            n = len(metavars.split()) - 1
            values = [text] if eq else [next(rest, "--") for _ in range(n)]
            if len(values) < n or not eq and not all(_is_value(v, options) for v in values):
                raise ValueError(f"{verb} takes {metavars}")
            fields[name] = _READ[kind](values[0]) if n == 1 else [*map(_READ[kind], values)]
    if len(free) > len(positionals):
        raise ValueError(f"unexpected argument {free[len(positionals)]!r} for {verb}")
    fields.update((name, _READ[kind](text)) for (name, kind, *_), text in zip(positionals, free))
    missing = [x[2] for x in (*positionals, *options.values()) if x[0] not in fields]
    if missing:
        raise ValueError(f"{verb} needs {', '.join(missing)}")
    return SimpleNamespace(**fields)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except ValueError as exc:  # a usage error: its text on stderr, nothing on stdout
        sys.stderr.write(f"nilforge: error: {exc}\n{_USAGE}")
        return 2
    if args is None:
        sys.stdout.write(_USAGE)
        return 0
    out = sys.stdout
    try:
        return args.func(args)
    except BrokenPipeError:  # the reader closed stdout: nothing more goes there
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())  # nor at the exit-time flush
        out, code, detail, status = sys.stderr, "ERR_BAD_INPUT", "stdout was closed", 2
    except NilforgeError as exc:  # a failed certificate is the program's fault, not the input's
        code, detail, status = exc.code, str(exc), 3 if isinstance(exc, CertificateError) else 2
    except Exception as exc:  # a fault of the program, not of its input
        traceback.print_exc()
        code, detail, status = "ERR_INTERNAL", f"{type(exc).__name__}: {exc}", 3
    out.write(json.dumps({"error": code, "detail": detail}, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
