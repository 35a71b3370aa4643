"""Traced mode: spans around the public entry points of every nilforge module.

The tracer wraps functions from outside; it edits no file under ``src/``.
A wrapped module-level function is replaced where it is defined and
wherever another nilforge module re-binds it (``from .exactlin import
...``).  Methods are replaced on their class.  ``lru_cache`` objects are
wrapped as they are, so cache hits still count as calls.

Each span records its group name, start, end, parent span and task id.
Spans stay in memory; ``write_spans`` writes them out at the end.  A span's
self time is its duration minus the wrapper time of its child spans (child
duration plus the child's bookkeeping), so over a task

    sum(self times) + sum(bookkeeping) + untraced remainder = task time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# group -> [(module, qualified name)]; a missing target is skipped, so the
# tracer keeps working when a later version moves or removes a function.
TARGETS = {
    "exactlin.span.add": [("nilforge.exactlin", "SpanBuilder.add")],
    "exactlin.span.query": [
        ("nilforge.exactlin", "SpanBuilder.contains"),
        ("nilforge.exactlin", "SpanBuilder.coords"),
    ],
    "exactlin.to_sparse": [("nilforge.exactlin", "matrix_to_sparse")],
    "exactlin.commutator": [("nilforge.exactlin", "commutator")],
    "exactlin.matmul": [("nilforge.exactlin", "RationalMatrix.__mul__")],
    "exactlin.elementwise": [
        ("nilforge.exactlin", "RationalMatrix." + name)
        for name in ("__add__", "__sub__", "__neg__", "scale", "transpose", "__eq__")
    ],
    "exactlin.trace_gram": [("nilforge.exactlin", "trace_gram")],
    "exactlin.elim": [
        ("nilforge.exactlin", name) for name in ("rref", "rank", "kernel_basis", "solve", "inverse")
    ],
    "exactlin.signature": [("nilforge.exactlin", "signature")],
    "exactlin.construct": [
        ("nilforge.exactlin", "RationalMatrix." + name)
        for name in ("__init__", "zeros", "identity", "diag", "from_json")
    ],
    "clifford.build_module": [("nilforge.clifford", "build_module")],
    "clifford.verify_module": [("nilforge.clifford", "verify_module")],
    "nilpotent.bracket": [("nilforge.nilpotent", "bracket")],
    "nilpotent.algebra_from_J": [("nilforge.nilpotent", "algebra_from_J")],
    "nilpotent.is_pseudo_H_type": [("nilforge.nilpotent", "is_pseudo_H_type")],
    "nilpotent.algebra_new": [("nilforge.nilpotent", "NilpotentAlgebra2.__init__")],
    "lattice.lattice_verdict": [("nilforge.lattice", "lattice_verdict")],
    "lattice.pseudo_H_pipeline_report": [("nilforge.lattice", "pseudo_H_pipeline_report")],
    "standardform.find_realizations": [("nilforge.standardform", "find_realizations")],
    "standardform.reduction_isomorphism": [("nilforge.standardform", "reduction_isomorphism")],
    "standardform.standard_algebra": [("nilforge.standardform", "standard_algebra")],
    "standardform.eta_twist": [("nilforge.standardform", "eta_twist")],
    "standardform.free_algebra": [("nilforge.standardform", "free_algebra")],
    "standardform.free_isomorphism": [("nilforge.standardform", "free_isomorphism")],
    "triple.generated_algebra": [("nilforge.triple", "generated_algebra")],
    "triple.killing_form": [("nilforge.triple", "killing_form")],
    "triple.ideal_probe": [("nilforge.triple", "ideal_probe")],
    "triple.generated_ideal": [("nilforge.triple", "generated_ideal")],
    "cli.main": [("nilforge.cli", "main")],
    "cli.load_algebra": [("nilforge.cli", "load_algebra")],
    "cli.canonical_json": [("nilforge.cli", "canonical_json")],
}

# (metric, group, statistic) in the order BENCHMARK.json lists them
PER_LAYER = [
    ("exactlin.span.add.calls", "exactlin.span.add", "calls"),
    ("exactlin.span.add.self_s", "exactlin.span.add", "self_s"),
    ("exactlin.span.add.useful_ratio", "exactlin.span.add", "useful_ratio"),
    ("exactlin.span.query.calls", "exactlin.span.query", "calls"),
    ("exactlin.span.query.self_s", "exactlin.span.query", "self_s"),
    ("exactlin.to_sparse.calls", "exactlin.to_sparse", "calls"),
    ("exactlin.to_sparse.self_s", "exactlin.to_sparse", "self_s"),
    ("exactlin.commutator.calls", "exactlin.commutator", "calls"),
    ("exactlin.commutator.self_s", "exactlin.commutator", "self_s"),
    ("exactlin.matmul.calls", "exactlin.matmul", "calls"),
    ("exactlin.matmul.self_s", "exactlin.matmul", "self_s"),
    ("exactlin.matmul.mults", "exactlin.matmul", "mults"),
    ("exactlin.matmul.int_share", "exactlin.matmul", "int_share"),
    ("exactlin.matmul.nnz_share", "exactlin.matmul", "nnz_share"),
    ("exactlin.elementwise.calls", "exactlin.elementwise", "calls"),
    ("exactlin.elementwise.self_s", "exactlin.elementwise", "self_s"),
    ("exactlin.trace_gram.calls", "exactlin.trace_gram", "calls"),
    ("exactlin.trace_gram.incl_s", "exactlin.trace_gram", "incl_s"),
    ("exactlin.elim.calls", "exactlin.elim", "calls"),
    ("exactlin.elim.self_s", "exactlin.elim", "self_s"),
    ("exactlin.signature.calls", "exactlin.signature", "calls"),
    ("exactlin.signature.self_s", "exactlin.signature", "self_s"),
    ("exactlin.construct.calls", "exactlin.construct", "calls"),
    ("exactlin.construct.self_s", "exactlin.construct", "self_s"),
    ("clifford.build_module.incl_s", "clifford.build_module", "incl_s"),
    ("clifford.verify_module.calls", "clifford.verify_module", "calls"),
    ("clifford.verify_module.incl_s", "clifford.verify_module", "incl_s"),
    ("nilpotent.bracket.calls", "nilpotent.bracket", "calls"),
    ("nilpotent.bracket.self_s", "nilpotent.bracket", "self_s"),
    ("nilpotent.algebra_from_J.incl_s", "nilpotent.algebra_from_J", "incl_s"),
    ("nilpotent.is_pseudo_H_type.incl_s", "nilpotent.is_pseudo_H_type", "incl_s"),
    ("nilpotent.algebra_new.calls", "nilpotent.algebra_new", "calls"),
    ("nilpotent.algebra_new.self_s", "nilpotent.algebra_new", "self_s"),
    ("lattice.lattice_verdict.incl_s", "lattice.lattice_verdict", "incl_s"),
    ("lattice.pseudo_H_pipeline_report.incl_s", "lattice.pseudo_H_pipeline_report", "incl_s"),
    ("standardform.find_realizations.incl_s", "standardform.find_realizations", "incl_s"),
    ("standardform.reduction_isomorphism.incl_s", "standardform.reduction_isomorphism", "incl_s"),
    ("standardform.standard_algebra.incl_s", "standardform.standard_algebra", "incl_s"),
    ("standardform.eta_twist.incl_s", "standardform.eta_twist", "incl_s"),
    ("standardform.free_algebra.incl_s", "standardform.free_algebra", "incl_s"),
    ("standardform.free_isomorphism.incl_s", "standardform.free_isomorphism", "incl_s"),
    ("triple.generated_algebra.incl_s", "triple.generated_algebra", "incl_s"),
    ("triple.killing_form.incl_s", "triple.killing_form", "incl_s"),
    ("triple.ideal_probe.incl_s", "triple.ideal_probe", "incl_s"),
    ("triple.generated_ideal.calls", "triple.generated_ideal", "calls"),
    ("cli.main.self_s", "cli.main", "self_s"),
    ("cli.load_algebra.incl_s", "cli.load_algebra", "incl_s"),
    ("cli.canonical_json.incl_s", "cli.canonical_json", "incl_s"),
]
UNITS = {
    "calls": "count",
    "mults": "count",
    "self_s": "s",
    "incl_s": "s",
    "useful_ratio": "ratio",
    "int_share": "ratio",
    "nnz_share": "ratio",
}

# span record fields: CHILD is the summed wrapper time of its child spans,
# OUTERMOST marks a span with no enclosing span of the same group, and
# BOOKKEEPING is the wrapper's own time outside [START, END]
NAME, START, END, PARENT, TASK, CHILD, OUTERMOST, BOOKKEEPING, EXTRA = range(9)


class Tracer:
    """Owns the span list and installs the wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active: dict[str, int] = defaultdict(int)
        self.task = -1
        self.root_wrapper_s = 0.0  # wrapper time of spans with no parent, this task

    # -- wrapping

    def _wrap(self, group: str, fn, extra=None, when=None):
        spans, stack, active = self.spans, self.stack, self.active
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            w0 = clock()
            parent = stack[-1] if stack else -1
            outer = active[group] == 0
            rec = [group, 0.0, 0.0, parent, tracer.task, 0.0, outer, 0.0, None]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            active[group] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[group] -= 1
                rec[START], rec[END] = t0, t1
            if extra is not None:
                rec[EXTRA] = extra(args, result)
            w1 = clock()
            rec[BOOKKEEPING] = (w1 - w0) - (t1 - t0)
            if parent >= 0:
                spans[parent][CHILD] += w1 - w0
            else:
                tracer.root_wrapper_s += w1 - w0
            return result

        return wrapper

    def install(self) -> None:
        extras = {"exactlin.span.add": _add_extra, "exactlin.matmul": _matmul_extra}
        # M * scalar goes through __mul__ too; only matrix products are spans
        whens = {"exactlin.matmul": _is_matrix_product}
        nil_modules = [m for name, m in sys.modules.items() if name == "nilforge" or name.startswith("nilforge.")]
        for group, targets in TARGETS.items():
            for modname, qual in targets:
                mod = sys.modules.get(modname)
                if mod is None:
                    continue
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(mod, cls_name, None)
                    raw = cls.__dict__.get(attr) if cls is not None else None
                    if raw is None:
                        continue
                    if isinstance(raw, classmethod):
                        setattr(cls, attr, classmethod(self._wrap(group, raw.__func__)))
                    else:
                        setattr(cls, attr, self._wrap(group, raw, extras.get(group), whens.get(group)))
                else:
                    orig = getattr(mod, qual, None)
                    if orig is None:
                        continue
                    wrapped = self._wrap(group, orig, extras.get(group))
                    for m in nil_modules:
                        for name, val in list(vars(m).items()):
                            if val is orig:
                                setattr(m, name, wrapped)

    # -- task boundaries

    def begin_task(self, task: int) -> None:
        self.task = task
        self.root_wrapper_s = 0.0

    # -- results

    def metrics(self) -> tuple[dict, dict]:
        """Per-layer statistics by group, plus totals for the closure check."""
        stats: dict = defaultdict(lambda: defaultdict(float))
        self_total = 0.0
        bookkeeping = 0.0
        for rec in self.spans:
            group = rec[NAME]
            st = stats[group]
            dur = rec[END] - rec[START]
            own = dur - rec[CHILD]
            st["self_s"] += own
            self_total += own
            bookkeeping += rec[BOOKKEEPING]
            if rec[OUTERMOST]:
                st["calls"] += 1
                st["incl_s"] += dur
            ex = rec[EXTRA]
            if ex is not None:
                if group == "exactlin.span.add":
                    st["useful"] += ex
                else:
                    mults, is_int, nnz, size = ex
                    st["mults"] += mults
                    st["int"] += is_int
                    st["nnz"] += nnz
                    st["size"] += size
        out = {}
        for metric, group, stat in PER_LAYER:
            st = stats.get(group, {})
            if stat == "useful_ratio":
                value = st.get("useful", 0.0) / st["calls"] if st.get("calls") else 0.0
            elif stat == "int_share":
                value = st.get("int", 0.0) / st["calls"] if st.get("calls") else 0.0
            elif stat == "nnz_share":
                value = st.get("nnz", 0.0) / st["size"] if st.get("size") else 0.0
            else:
                value = st.get(stat, 0.0)
            out[metric] = value
        return out, {"self_total_s": self_total, "bookkeeping_s": bookkeeping}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": rec[NAME],
                            "start": rec[START],
                            "end": rec[END],
                            "parent": rec[PARENT],
                            "task": rec[TASK],
                        }
                    )
                    + "\n"
                )


def _add_extra(args, result):
    return 1 if result else 0


def _is_matrix_product(args) -> bool:
    return len(args) == 2 and hasattr(args[1], "rows") and hasattr(args[1], "entries")


def _matmul_extra(args, result):
    a, b = args
    mults = a.rows * a.cols * b.cols
    is_int = 1 if (a.is_integer() and b.is_integer()) else 0
    nnz = sum(1 for x in a.entries() if x) + sum(1 for x in b.entries() if x)
    return (mults, is_int, nnz, a.rows * a.cols + b.rows * b.cols)
