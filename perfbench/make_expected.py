#!/usr/bin/env python3
"""Write the stored expected rows for the seed pools of ``perfbench.specs``.

Usage::

    python3 perfbench/make_expected.py

Each sweep's rows are computed on the reference kernel and written to
``perfbench/expected/<name>.json``; files already present are skipped.
The reference kernel takes about 28 s per Table-1 sweep and 30 s per zoo
sweep, so a full regeneration takes about sixteen minutes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import specs  # noqa: E402
from perfbench.expected import STORE, reference_rows  # noqa: E402


def jobs():
    for seed in specs.TABLE1_POOL:
        yield f"table1-s{seed}", specs.table1_sweep(seed, specs.FULL)
    for seed in specs.RANDOM_POOL:
        zoo = specs.zoo_sweep(seed, specs.FULL)
        yield f"zoo-fixed-s{seed}", zoo[:-1]
        yield f"zoo-random-s{seed}", zoo[-1:]


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    STORE.mkdir(exist_ok=True)
    for name, bodies in jobs():
        path = STORE / f"{name}.json"
        if path.exists():
            continue
        rows = reference_rows(bodies)
        path.write_text(json.dumps(rows, sort_keys=True) + "\n")
        print(f"wrote {path.name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
