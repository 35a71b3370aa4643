"""Workload definitions: seeded task lists and the reduce-small inputs.

A task is one ``nilforge`` CLI call.  No two tasks of a run share an input
(a signature, a (p, q) pair or an algebra), so the program's caches can
help only inside one task, as inside one CLI call.  The seed decides which
inputs are drawn and in which order; the mix of kinds in a list is fixed
per workload, so two seeds ask for about the same amount of work.

Nominal costs (seconds per task at the reference speed, measured once on a
2-core x86-64 VM at the commit that added the bench) only decide where
``--seconds`` cuts a list that would not fit; they never depend on the host
a run is on.  Every list fits in 20 nominal seconds.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import comb
from pathlib import Path

from oracles import rank

WORKLOADS = ("modules", "triples", "free-gram", "reduce-small")

# modules: the verbs given to the signatures of each r+s, one verb per
# signature; all 6 signatures with r+s = 5 and 4 of the 7 with r+s = 6 run
_MODULE_VERBS = {
    5: ("clifford", "clifford", "build", "build", "lattice-pseudo-h", "lattice-pseudo-h"),
    6: ("clifford", "clifford", "build", "lattice-pseudo-h"),
}
_NOMINAL = {
    ("clifford", 5): 0.42,
    ("build", 5): 0.65,
    ("lattice-pseudo-h", 5): 0.97,
    ("clifford", 6): 2.2,
    ("build", 6): 3.45,
    ("lattice-pseudo-h", 6): 7.0,
    ("triple", 3): 0.2,
    ("triple", 4): 1.23,
    ("triple", 5): 7.4,
    ("free", 6): 0.65,
    ("free", 7): 1.8,
    ("free", 8): 4.3,
    ("reduce", 0): 0.125,
    ("lattice-file", 0): 0.005,
}
_TRIPLES_DRAWN = 1  # signatures with r+s = 5 per triples run
_FREE_DRAWN = 2  # (p, q) pairs with p+q = 8 per free-gram run
# one reduce task to two lattice tasks, so the median task is a cheap
# per-call-overhead one and p90 lands among the reduce tasks
_REDUCE_TASKS = 78
_LATTICE_FILE_TASKS = 156


def _signatures(n: int) -> list[tuple[int, int]]:
    return [(r, n - r) for r in range(n, -1, -1)]


def _task(kind: str, size: int, argv: list[str], meta: dict, key: str, env=None) -> dict:
    return {
        "kind": kind,
        "argv": argv,
        "env": env or {},
        "meta": meta,
        "key": key,
        "nominal_s": _NOMINAL[(kind, size)],
    }


def _sig_task(kind: str, r: int, s: int) -> dict:
    verb = {"clifford": ["clifford"], "build": ["build"], "lattice-pseudo-h": ["lattice", "--pseudo-h"]}[kind]
    argv = verb + [str(r), str(s)]
    return _task(kind, r + s, argv, {"r": r, "s": s}, " ".join(argv))


def _modules(rng: random.Random) -> list[dict]:
    tasks = []
    for n, verbs in _MODULE_VERBS.items():
        sigs = rng.sample(_signatures(n), len(verbs))
        tasks += [_sig_task(v, r, s) for v, (r, s) in zip(verbs, sigs)]
    return tasks


def _triples(rng: random.Random) -> list[dict]:
    sigs = _signatures(3) + _signatures(4) + rng.sample(_signatures(5), _TRIPLES_DRAWN)
    tasks = []
    for r, s in sigs:
        probe = rng.randrange(1000)
        argv = ["triple", str(r), str(s)]
        tasks.append(
            _task(
                "triple",
                r + s,
                argv,
                {"r": r, "s": s, "probe_seed": probe},
                f"triple {r} {s} NILFORGE_SEED={probe}",
                {"NILFORGE_SEED": str(probe)},
            )
        )
    return tasks


def _free(rng: random.Random) -> list[dict]:
    pairs = [(p, m - p) for m in (6, 7) for p in range(m // 2 + 1)]
    pairs += rng.sample([(p, 8 - p) for p in range(9)], _FREE_DRAWN)
    return [
        _task("free", p + q, ["free", str(p), str(q)], {"p": p, "q": q}, f"free {p} {q}")
        for p, q in pairs
    ]


def _rat_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _diag_json(values) -> dict:
    n = len(values)
    return {
        "rows": n,
        "cols": n,
        "entries": [[str(values[i]) if i == j else "0" for j in range(n)] for i in range(n)],
    }


def random_algebra(rng: random.Random, m: int, n: int, d: int) -> dict:
    """A seeded adapted 2-step algebra: n antisymmetric m x m matrices C^k
    with entries in {-2..2}/d, independence checked by the bench's own
    elimination, and diagonal +-1 forms."""
    while True:
        cs = []
        for _ in range(n):
            c = [[Fraction(0)] * m for _ in range(m)]
            for i in range(m):
                for j in range(i + 1, m):
                    v = Fraction(rng.randint(-2, 2), d)
                    c[i][j], c[j][i] = v, -v
            cs.append(c)
        if rank([[x for row in c for x in row] for c in cs]) == n:
            break
    return {
        "m": m,
        "n": n,
        "C": [[[_rat_str(x) for x in row] for row in c] for c in cs],
        "form_V": _diag_json([rng.choice((1, -1)) for _ in range(m)]),
        "form_Z": _diag_json([rng.choice((1, -1)) for _ in range(n)]),
        "tag": "adapted",
    }


# every (m, n, d) with 2 <= m <= 6, 1 <= n <= min(3, C(m, 2)), d in 1..3.  A
# reduce task costs about 40x more at m = 6 than at m = 2, and n matters
# almost as much, so each verb cycles through these shapes in a fixed mix
# and the seed only draws the entries and forms.
_SHAPES = [(m, n, d) for m in range(2, 7) for n in range(1, min(3, comb(m, 2)) + 1) for d in (1, 2, 3)]


def _reduce_small(rng: random.Random, work: Path) -> list[dict]:
    jobs = [("reduce", _SHAPES[i % len(_SHAPES)]) for i in range(_REDUCE_TASKS)]
    jobs += [("lattice-file", _SHAPES[i % len(_SHAPES)]) for i in range(_LATTICE_FILE_TASKS)]
    tasks = []
    seen = set()
    for i, (kind, shape) in enumerate(jobs):
        while True:  # small shapes repeat by chance; no two tasks share an input
            algebra = random_algebra(rng, *shape)
            text = json.dumps(algebra, indent=2, sort_keys=True) + "\n"
            if text not in seen:
                seen.add(text)
                break
        path = work / f"algebra-{i:04d}.json"
        path.write_text(text, encoding="utf-8")
        verb = "reduce" if kind == "reduce" else "lattice"
        key = f"{verb} sha256:{hashlib.sha256(text.encode()).hexdigest()[:24]}"
        tasks.append(_task(kind, 0, [verb, str(path)], {"algebra": algebra}, key))
    return tasks


def build_tasks(workload: str, seed: int, seconds: float, work: Path) -> list[dict]:
    """The seeded task list of one run, cut to the longest prefix whose
    nominal cost fits ``seconds`` (at least one task).  Input files are
    written under ``work`` before the run starts timing."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "modules":
        tasks = _modules(rng)
    elif workload == "triples":
        tasks = _triples(rng)
    elif workload == "free-gram":
        tasks = _free(rng)
    elif workload == "reduce-small":
        tasks = _reduce_small(rng, work)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(tasks)
    kept, total = [], 0.0
    for t in tasks:
        if kept and total + t["nominal_s"] > seconds:
            break
        kept.append(t)
        total += t["nominal_s"]
    return kept
