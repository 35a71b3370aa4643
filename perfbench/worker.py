"""Benchmark worker: one fresh, single-threaded process per run.

Usage: ``python3 worker.py SRC_DIR --probe`` imports nilforge and prints a
JSON line with the monotonic clock at the moment the import finished (the
set-up probe); ``python3 worker.py SRC_DIR JOB_JSON`` also runs the job's
tasks in a closed loop with one client, calling ``nilforge.cli.main(argv)``
in-process with stdout captured.  In both, the reference-kernel sampler
runs from the first line on (see refkernel.py).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from refkernel import PERIOD_S, Sampler, run_kernel


def _import_nilforge(src: Path, sampler: Sampler):
    sys.path.insert(0, str(src))
    import nilforge  # noqa: F401
    import nilforge.cli

    done = time.monotonic()
    setup = {
        "imported_at": done,
        "handler_s": sampler.handler_s,
        # an import faster than one sampling period still gets one sample
        "kernel_s": [d for _, d in sampler.samples] or [run_kernel()],
    }
    where = Path(nilforge.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"imported nilforge from {where}, not from {src}")
    return nilforge.cli, setup


def _run(job: dict, cli_mod, sampler: Sampler) -> dict:
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    out_dir = Path(job["out_dir"])
    records = []
    for i, task in enumerate(job["tasks"]):
        for name, value in task["env"].items():
            os.environ[name] = value
        buf = io.StringIO()
        error = None
        rc = None
        if tracer is not None:
            tracer.begin_task(i)
        with contextlib.redirect_stdout(buf):
            h0 = sampler.handler_s
            t0 = time.perf_counter()
            try:
                rc = cli_mod.main(list(task["argv"]))
            except Exception:  # a crash is a failed task, not a failed run
                error = traceback.format_exc()
            t1 = time.perf_counter()
            sampling_s = sampler.handler_s - h0
        for name in task["env"]:
            del os.environ[name]
        text = buf.getvalue()
        data = text.encode("utf-8")
        (out_dir / f"{i:04d}.out").write_bytes(data)
        rec = {
            "rc": rc,
            "error": error,
            "start": t0,
            "end": t1,
            "seconds": t1 - t0 - sampling_s,
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
        }
        if tracer is not None:
            rec["root_wrapper_s"] = tracer.root_wrapper_s
        records.append(rec)
    while sampler.samples[-1][0] < records[-1]["end"]:
        time.sleep(PERIOD_S)
    sampler.stop()
    result = {
        "records": records,
        "samples": sampler.samples,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"], result["trace_totals"] = tracer.metrics()
        tracer.write_spans(job["spans_path"])
    return result


def main(argv: list[str]) -> int:
    sampler = Sampler()
    sampler.start()
    src = Path(argv[0])
    cli_mod, setup = _import_nilforge(src, sampler)
    if argv[1] == "--probe":
        sampler.stop()
        print(json.dumps(setup))
        return 0
    job = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    result = _run(job, cli_mod, sampler)
    result["setup"] = setup
    Path(job["result_path"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
