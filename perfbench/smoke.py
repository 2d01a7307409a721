"""Smoke check of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json: an untraced run prints exactly the
end-to-end metrics and a traced run exactly the per-layer metrics, each with
the unit BENCHMARK.json gives, and no operation fails; a run with
``--fault``, which corrupts one output per operation, reports every
operation failed and a success rate (1 - error rate) below 1. Exits 1 on
any miss.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, trace: int, fault: bool = False) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    if fault:
        cmd.append("--fault")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=175,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    misses = []
    for workload in (w["name"] for w in spec["workloads"]):
        before = len(misses)
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[section]}
            result = run(workload, trace)
            got = {name: entry["unit"] for name, entry in result["metrics"].items()}
            if got != want:
                misses.append(f"{workload} trace={trace}: metrics or units differ from "
                              f"BENCHMARK.json {section}: {sorted(set(got) ^ set(want))}")
            if not all(isinstance(e["value"], (int, float)) for e in result["metrics"].values()):
                misses.append(f"{workload} trace={trace}: a metric value is not a number")
            if not result["correct"] or result["failed"]:
                misses.append(f"{workload} trace={trace}: {result['failed']} operations failed")
        result = run(workload, 0, fault=True)
        if result["correct"] or result["failed"] != result["attempted"] \
                or not result["metrics"]["success_rate"]["value"] < 1.0:
            misses.append(f"{workload}: a corrupted output was not counted as an error")
        print(f"{workload}: {'ok' if len(misses) == before else 'MISS'}", flush=True)
    for miss in misses:
        print(f"MISS {miss}")
    print("smoke check", "failed" if misses else "passed")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
