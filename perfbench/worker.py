"""One benchmark process: set up one workload, then run it in a closed loop.

Started by ``run.py`` in a fresh interpreter with ``src`` on PYTHONPATH and
the BLAS thread count fixed. Prints one JSON object a line on stdout: a
``ready`` event once the workload's inputs are built, then one
``iteration`` event per operation until ``--seconds`` have passed (at
least two operations, so every run checks a repeat against the first). With
``--trace 1`` odd iterations run traced, so traced and untraced times come
from the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import time
from pathlib import Path


def _emit(event: dict) -> None:
    print(json.dumps(event), flush=True)


def _machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--seconds", type=float, default=0.0, help="0: set up, then exit")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--fault", action="store_true")
    parser.add_argument("--spans", default=None, help="file for the traced spans")
    args = parser.parse_args()

    started = time.perf_counter()
    import tailflow.cli  # noqa: F401  (the import a CLI user pays for)

    import_s = time.perf_counter() - started
    from tracing import Tracer
    from workloads import WORKLOADS

    kind = WORKLOADS[args.workload]
    if args.fault:
        kind.fault()
    workload = kind(args.seed, args.size, Path(args.workdir))
    setup_s = time.monotonic() - args.spawned_at
    _emit({"event": "ready", "setup_s": setup_s, "import_s": import_s,
           "machine": _machine_facts()})
    if args.seconds <= 0:
        return

    tracer = Tracer()
    deadline = time.perf_counter() + args.seconds
    iteration = 0
    while iteration < 2 or time.perf_counter() < deadline:
        traced = bool(args.trace) and iteration % 2 == 1
        if traced:
            tracer.install()
        error = None
        begin = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                result = workload.run()
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - begin
        if traced:
            tracer.uninstall()
        event = {"event": "iteration", "s": elapsed, "traced": traced, "stages": {}}
        if error is None:
            try:
                event["stages"] = workload.check(result)
            except Exception as exc:  # noqa: BLE001 - any check failure counts as an error
                error = f"{type(exc).__name__}: {exc}"
        event["error"] = error
        if traced:
            event["layers"] = tracer.finish_iteration()
            event["unwrapped"] = tracer.missing
        _emit(event)
        iteration += 1
    if args.spans:
        tracer.dump(Path(args.spans))


if __name__ == "__main__":
    main()
