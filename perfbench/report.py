#!/usr/bin/env python3
"""Print every metric of every workload, by name and unit.

Usage::

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace]

Runs ``perfbench/run.py`` once per workload of ``BENCHMARK.json`` (and,
with ``--trace``, once more traced) and prints one table per workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true",
                        help="also run traced and print per-layer metrics")
    args = parser.parse_args()
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1) if args.trace else (0,):
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            if done.returncode != 0:
                print(f"{workload}: run failed\n{done.stderr[-2000:]}")
                status = 1
                continue
            lines = done.stdout.strip().splitlines()
            stamp, result = json.loads(lines[-2]), json.loads(lines[-1])
            print(f"\n{workload} ({stamp['stamp']['mode']}, seed "
                  f"{args.seed}): correct={result['correct']} "
                  f"rows={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:<34} {metric['value']:>14.4f} "
                      f"{metric['unit']}")
            if not result["correct"]:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
