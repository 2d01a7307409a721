"""tailflow benchmark: three closed-loop workloads, one caller in one process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a tailflow checkout; the package is imported from
``src`` with no install step. Each run starts fresh interpreters: several
that only set the workload up (for ``setup_s``), then one that runs the
workload back to back for ``--seconds`` (``run_s``, ``peak_rss_mb`` read
from outside through ``wait4``, ``success_rate``). With ``--trace 1`` two
processes alternate untraced and traced iterations; the per-layer figures
come from the traced ones, tracing overhead is traced minus untraced
``run_s``, and the counts must repeat exactly between the two processes.

The last stdout line is the result object; the line before it holds the
details (iteration times, tail percentile, machine facts, errors).
``--size tiny`` and ``--fault`` serve ``smoke.py``.

Workload seeds: claims are measured on DEFAULT_SEED and must also hold on
HELDOUT_SEED, which is not used while a change is written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from tracing import LAYERS

WORKLOADS = ("pipeline-default", "tail8-experts-vs-single", "conflicts-6k")
DEFAULT_SEED = 0
HELDOUT_SEED = 7919
# One BLAS thread: the matrices are small, and a second thread only adds
# scheduling noise on a shared machine.
BLAS_THREADS = "1"
# Fresh processes that only set up; with the measuring processes' own
# set-up they give the median setup_s.
SETUP_PROBES = 4
# Everything must end within this many seconds of the start.
TIME_LIMIT_S = 170.0

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "success_rate": "ratio"}
PER_LAYER = {
    "pipeline.datagen_s": "s",
    "pipeline.partition_s": "s",
    "pipeline.train_s": "s",
    "pipeline.sample_s": "s",
    "pipeline.evaluate_s": "s",
    "cli.import_s": "s",
    "datagen.generate_corpus.s": "s",
    "datagen.generate_corpus.samples": "count",
    "datagen.io.s": "s",
    "datagen.io.bytes": "bytes",
    "partition.bisecting_kmeans_partition.s": "s",
    "partition.bisecting_kmeans_partition.peak_mb": "MB",
    "training.train.s": "s",
    "training.steps_per_s": "1/s",
    "training.pretrain_backbone.s": "s",
    "training.assemble_batch.us": "us",
    "training.assemble_batch.calls": "count",
    "training.loop_other_us": "us",
    "training.measure_conflict_reduction.s": "s",
    "seeding.derive_seed.us": "us",
    "seeding.derive_seed.calls": "count",
    "model.flow_matching_loss.us": "us",
    "model.flow_matching_loss.calls": "count",
    "model.flow_matching_loss.rows": "count",
    "model.sgd_step.us": "us",
    "model.sample_batch.s": "s",
    "model.model_forward.us": "us",
    "model.model_forward.calls": "count",
    "model.model_forward.rows_per_call": "rows/call",
    "model.per_sample_probe_gradients.s": "s",
    "model.per_sample_probe_gradients.rows": "count",
    "metrics.evaluate.s": "s",
    "metrics.evaluate.peak_mb": "MB",
    "metrics.knn_radii.s": "s",
    "metrics.coverage.s": "s",
    "metrics.irs.s": "s",
    "metrics.frechet_distance.s": "s",
    "metrics.distance_pairs": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
}
# Figures that must repeat exactly between traced runs of one seed.
COUNT_UNITS = ("count", "bytes", "rows/call")
PIPELINE_STAGES = ("datagen", "partition", "train", "sample", "evaluate")


class BenchError(Exception):
    """The benchmark itself could not run."""


class Runner:
    def __init__(self, root: Path, args, workdir: Path):
        self.root = root
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = BLAS_THREADS

    def spawn(self, seconds: float = 0.0, spans: Path | None = None):
        """Run one worker; returns its events and its peak RSS in MB."""
        a = self.args
        spawned_at = time.monotonic()
        cmd = [sys.executable, str(self.root / "perfbench" / "worker.py"),
               "--workload", a.workload, "--seed", str(a.seed), "--size", a.size,
               "--workdir", str(self.workdir), "--spawned-at", repr(spawned_at),
               "--seconds", repr(seconds), "--trace", str(a.trace)]
        if a.fault:
            cmd.append("--fault")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                text=True)
        timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            lines = proc.stdout.read().splitlines()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            proc.stdout.close()
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}")
        events = [json.loads(line) for line in lines if line.startswith("{")]
        if not events or events[0]["event"] != "ready":
            raise BenchError("worker printed no ready event")
        return events, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(times: list[float]) -> dict | None:
    """The highest percentile with at least ten samples above it."""
    n = len(times)
    if n < 11:
        return None
    ordered = sorted(times)
    rank = n - 11  # ordered[rank] has exactly ten samples above it
    return {"percentile": 100.0 * (rank + 1) / n, "value": ordered[rank], "samples": n}


def measure(runner: Runner, args, out_dir: Path) -> tuple[dict, dict]:
    probes = [runner.spawn()[0][0] for _ in range(SETUP_PROBES)]
    workers = []
    if args.trace:
        for k in range(2):
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}-{k}.jsonl"
            workers.append((*runner.spawn(args.seconds / 2, spans), spans))
    else:
        workers.append((*runner.spawn(args.seconds), None))

    ready = probes + [events[0] for events, _, _ in workers]
    iterations = [e for events, _, _ in workers for e in events[1:]]
    errors = [e["error"] for e in iterations if e["error"]]
    attempted, failed = len(iterations), len(errors)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "heldout_seed": HELDOUT_SEED,
        "size": args.size,
        "trace": args.trace,
        "closed_loop": "one caller, one process, next operation after the previous ends",
        "iteration_s": [e["s"] for e in iterations],
        "traced": [e["traced"] for e in iterations],
        "setup_samples_s": [e["setup_s"] for e in ready],
        "peak_rss_mb_per_worker": [rss for _, rss, _ in workers],
        "machine": ready[0]["machine"],
        "errors": errors,
    }
    correct = failed == 0
    if not args.trace:
        times = [e["s"] for e in iterations]
        details["run_s_tail"] = tail_percentile(times)
        metrics = {
            "run_s": _median(times),
            "setup_s": _median([e["setup_s"] for e in ready]),
            "peak_rss_mb": max(rss for _, rss, _ in workers),
            "success_rate": 1.0 - failed / attempted,
        }
        units = END_TO_END
    else:
        traced = [e for e in iterations if e["traced"]]
        untraced = [e for e in iterations if not e["traced"]]
        # counts are checked to repeat below, so the first traced value stands
        metrics = {name: traced[0]["layers"][name] if PER_LAYER[name] in COUNT_UNITS
                   else _median([e["layers"][name] for e in traced])
                   for name in traced[0]["layers"]}
        for stage in PIPELINE_STAGES:
            key = f"pipeline.{stage}_s"
            metrics[key] = _median([e["stages"][key] for e in untraced if key in e["stages"]])
        metrics["cli.import_s"] = _median([e["import_s"] for e in ready])
        metrics["trace.overhead_s"] = (_median([e["s"] for e in traced])
                                       - _median([e["s"] for e in untraced]))
        mismatched = sorted(
            name for name, unit in PER_LAYER.items() if unit in COUNT_UNITS
            and len({e["layers"][name] for e in traced}) > 1
        )
        if mismatched:
            correct = False
            details["counts_not_repeated"] = mismatched
        details["counts"] = {name: metrics[name] for name, unit in PER_LAYER.items()
                             if unit in COUNT_UNITS}
        details["unwrapped"] = sorted({m for e in traced for m in e["unwrapped"]})
        details["spans_files"] = [str(spans.relative_to(runner.root)) for _, _, spans in workers]
        units = PER_LAYER
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return details, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke check's sizes")
    parser.add_argument("--fault", action="store_true",
                        help="corrupt one output per operation, to test the checks")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "tailflow" / "__init__.py").is_file():
        print(f"perfbench: no tailflow source under {root / 'src'}", file=sys.stderr)
        return 2
    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        details, result = measure(Runner(root, args, workdir), args, out_dir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, entry in result["metrics"].items():
        if not math.isfinite(entry["value"]):
            print(f"perfbench: {name} is not finite", file=sys.stderr)
            return 1
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
