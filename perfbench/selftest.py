#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes.

Usage::

    python3 perfbench/selftest.py

For every workload it runs ``perfbench/run.py --toy`` untraced and traced,
on a two-seed pool so that servers are replaced after every second sweep,
and checks that the last output line has exactly the result keys, that the
rows are correct, and that the metrics are exactly the ``end_to_end``
(untraced) or ``per_layer`` (traced) metrics of ``BENCHMARK.json`` with
their units.  It then runs each workload once with one expected row
deliberately altered and checks that the run reports the mismatch.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, trace: int, *extra: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--toy", "--data-seeds", "9001:2", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if done.returncode != 0:
        raise AssertionError(
            f"{workload} trace={trace} exited {done.returncode}:\n"
            + done.stderr[-3000:]
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected_metrics = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = run(workload, trace)
            label = f"{workload} trace={trace}"
            known = len(problems)
            if set(result) != RESULT_KEYS:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} bad rows")
            units = {
                name: metric["unit"]
                for name, metric in result["metrics"].items()
            }
            if units != expected_metrics[trace]:
                missing = set(expected_metrics[trace]) - set(units)
                extra = set(units) - set(expected_metrics[trace])
                problems.append(
                    f"{label}: metrics differ (missing {sorted(missing)}, "
                    f"unexpected {sorted(extra)}, or a unit)"
                )
            print(("ok  " if len(problems) == known else "BAD ") + label)
        corrupted = run(workload, 0, "--corrupt-expected")
        if corrupted["correct"] or corrupted["failed"] < 1:
            problems.append(f"{workload}: a corrupted expected row passed")
        else:
            print(f"ok  {workload} reports a corrupted expected row")
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
