"""nilforge benchmark: command-line entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the seeded task list of one workload (see tasks.py), measures the
set-up time over several fresh interpreter starts, runs the tasks in one
fresh single-threaded worker process and re-checks every output with the
bench's own oracles and reference digests.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones, from a traced worker run after an untraced one.

The program is imported from ``src/`` of the checkout that holds this
directory; without it the bench exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import refkernel
import tasks as workloads
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
DIGESTS = BENCH_DIR / "digests.json"
DEFAULT_SEED = 7
SETUP_PROBES = 8
DEADLINE_S = 170.0


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("NILFORGE_SEED", None)
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("benchmark run exceeded its time limit")
    return left


def _setup_time(setup: dict, spawned_at: float) -> tuple[float, float]:
    """(raw seconds, seconds at the reference speed) from spawning a worker
    until ``import nilforge.cli`` was done, sampler time taken out."""
    raw = setup["imported_at"] - spawned_at
    net = raw - setup["handler_s"]
    speed = sum(setup["kernel_s"]) / len(setup["kernel_s"])
    return raw, net / speed * refkernel.REF_S


def _probe_setup(deadline: float) -> tuple[float, float]:
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(SRC), "--probe"],
        env=_child_env(),
        capture_output=True,
        text=True,
        check=True,
        timeout=_remaining(deadline),
    )
    return _setup_time(json.loads(out.stdout.strip().splitlines()[-1]), t0)


def _run_worker(job: dict, tmp: Path, name: str, deadline: float) -> tuple[dict, tuple[float, float]]:
    out_dir = tmp / f"out-{name}"
    out_dir.mkdir()
    job = dict(job, out_dir=str(out_dir), result_path=str(tmp / f"result-{name}.json"))
    job_path = tmp / f"job-{name}.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    t0 = time.monotonic()
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(SRC), str(job_path)],
        env=_child_env(),
        check=True,
        timeout=_remaining(deadline),
    )
    result = json.loads(Path(job["result_path"]).read_text(encoding="utf-8"))
    result["out_dir"] = out_dir
    return result, _setup_time(result["setup"], t0)


def _normalise(result: dict) -> list[float]:
    """Each task's seconds in reference units: divided by the mean kernel
    duration sampled while it ran."""
    samples = result["samples"]
    return [
        rec["seconds"] / refkernel.kernel_mean(samples, rec["start"], rec["end"])
        for rec in result["records"]
    ]


def _check_outputs(task_list: list[dict], result: dict, digests: dict) -> list[list[str]]:
    problems = []
    for i, (task, rec) in enumerate(zip(task_list, result["records"])):
        found = []
        if rec["error"]:
            found.append("exception: " + rec["error"].strip().splitlines()[-1])
        elif rec["rc"] != 0:
            found.append(f"exit code {rec['rc']}")
        else:
            want = digests.get(task["key"])
            if want is not None and want != rec["sha256"]:
                found.append("stdout differs from the reference digest")
            text = (result["out_dir"] / f"{i:04d}.out").read_text(encoding="utf-8")
            found += oracles.check(task, text)
        problems.append(found)
    return problems


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--capture",
        action="store_true",
        help="merge this run's stdout digests into digests.json if every check passed",
    )
    args = parser.parse_args(argv)
    if not (SRC / "nilforge" / "__init__.py").is_file():
        print(f"perfbench: no nilforge sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    tmp = STATE / f"run-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    (tmp / "inputs").mkdir(parents=True)
    try:
        return _bench(args, tmp, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _bench(args, tmp: Path, deadline: float) -> int:
    task_list = workloads.build_tasks(args.workload, args.seed, args.seconds, tmp / "inputs")
    digests = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    job = {"tasks": [{"argv": t["argv"], "env": t["env"]} for t in task_list], "trace": False}

    # set-up samples: (raw seconds, seconds at the reference speed); half of
    # the probes run after the worker, so they meet another host state
    setups = []
    if not args.trace:
        _probe_setup(deadline)  # untimed: lets the interpreter write its bytecode caches
        setups = [_probe_setup(deadline) for _ in range(SETUP_PROBES // 2)]
    plain, worker_setup = _run_worker(job, tmp, "plain", deadline)
    setups.append(worker_setup)
    if not args.trace:
        setups += [_probe_setup(deadline) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    runs = [plain]
    if args.trace:
        spans_path = STATE / "results" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        traced, _ = _run_worker(dict(job, trace=True, spans_path=str(spans_path)), tmp, "traced", deadline)
        runs.append(traced)

    problems = [_check_outputs(task_list, r, digests) for r in runs]
    attempted = sum(len(r["records"]) for r in runs)
    failed = sum(1 for per_run in problems for p in per_run if p)
    correct = failed == 0

    ref_units = _normalise(plain)
    wall_s = sum(rec["seconds"] for rec in plain["records"])
    wall_ref = sum(ref_units)
    ref_ms = 1000 * statistics.median(d for _, d in plain["samples"])
    if args.trace:
        metrics, closure = _per_layer(traced, wall_ref)
        if not closure:
            print("perfbench: traced self times do not add up to the traced wall time", file=sys.stderr)
        correct = correct and closure
    else:
        metrics = {
            "setup_s": (statistics.median(s for _, s in setups), "s"),
            "wall_ref": (wall_ref, "ref"),
            "task_p50_ref": (statistics.median(ref_units), "ref"),
            "task_p90_ref": (_p90(ref_units), "ref"),
            "peak_rss_mb": (plain["peak_rss_kb"] / 1024, "MB"),
            "success_rate": (1 - failed / attempted, "ratio"),
        }

    t_base = plain["samples"][0][0]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "ref_ms": ref_ms,
        "ref_samples": len(plain["samples"]),
        "wall_s": wall_s,
        "setup_samples": [{"raw_s": raw, "ref_speed_s": ref} for raw, ref in setups],
        "tasks": [
            {
                "key": t["key"],
                "seconds": rec["seconds"],
                "ref_units": ru,
                "start": rec["start"] - t_base,
                "end": rec["end"] - t_base,
                "sha256": rec["sha256"],
                "bytes": rec["bytes"],
                "problems": prob,
            }
            for t, rec, ru, prob in zip(task_list, plain["records"], ref_units, problems[0])
        ],
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "kernel_samples": [(t - t_base, d) for t, d in plain["samples"]],
    }
    results_dir = STATE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    if args.capture and correct:
        digests.update({t["key"]: rec["sha256"] for t, rec in zip(task_list, plain["records"])})
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    for per_run in problems:
        for t, prob in zip(task_list, per_run):
            if prob:
                print(f"perfbench: FAILED {t['key']}: {'; '.join(prob[:3])}", file=sys.stderr)
    print(
        json.dumps(
            {
                "diagnostics": {
                    "tasks": len(task_list),
                    "ref_ms": round(ref_ms, 3),
                    "ref_samples": len(plain["samples"]),
                    "wall_s": round(wall_s, 3),
                    "record": str(record_path.relative_to(ROOT)),
                }
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        ),
        flush=True,
    )
    return 0


def _per_layer(traced: dict, untraced_wall_ref: float) -> tuple[dict, bool]:
    """Per-layer metrics of the traced run, and whether self times, wrapper
    bookkeeping and the untraced remainder add up to the traced wall time."""
    layers = traced["layers"]
    metrics = {
        name: (layers[name], tracing.UNITS[stat]) for name, _, stat in tracing.PER_LAYER
    }
    records = traced["records"]
    metrics["cli.out_bytes"] = (sum(rec["bytes"] for rec in records), "bytes")
    metrics["trace.overhead_ratio"] = (sum(_normalise(traced)) / untraced_wall_ref, "ratio")
    # span times include the sampler's handler runs, so the closure uses
    # the raw task times
    wall = sum(rec["end"] - rec["start"] for rec in records)
    remainder = sum(rec["end"] - rec["start"] - rec["root_wrapper_s"] for rec in records)
    totals = traced["trace_totals"]
    accounted = totals["self_total_s"] + totals["bookkeeping_s"] + remainder
    metrics["trace.self_share"] = (totals["self_total_s"] / wall, "ratio")
    return metrics, abs(accounted - wall) <= 1e-6 * max(wall, 1.0)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, TimeoutError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
