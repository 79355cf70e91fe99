"""What each workload submits: the sweep bodies, built from the seed.

A *sweep* is the set of submissions one client makes and waits for:

* Table 1 (``table1_cold``, ``table1_cold_pool``): the paper's sort and
  matrix-multiply CPUs, each under WP1 and WP2 at every uniform RS depth —
  two submissions, ``2 × 2 × depths`` rows (64 at full size);
* generator zoo (``zoo_horizon``): ring, 3×3 torus, marked graph, DAG and a
  seeded random netlist, each under WP1 and WP2 at every depth — five
  submissions, ``5 × 2 × depths`` rows (80 at full size).  The four cyclic
  shapes run to a horizon, where steady-state detection can jump; the DAG
  drains a limited source and cannot.  The four fixed shapes are named
  after the sweep's data seed (``ring-s7``): the name is part of the
  netlist's content digest, so each sweep's five netlists are new layouts
  to the daemon (registered, bound and simulated afresh, every row a cache
  miss) although their rows equal those of the unnamed shapes.

Every row is checked against the reference kernel, which costs about 28 s
per Table-1 sweep and 12 s per random topology, so no run can afford to
compute the rows of the sweeps it times.  The data seeds therefore come
from a *pool*: sweep *k* of a run with seed *n* uses pool entry
``(n + k) mod len(pool)``.  By default the pool is one whose expected rows
are stored in ``perfbench/expected/``; ``--data-seeds FIRST:COUNT`` swaps in
``COUNT`` other data seeds, whose rows are computed before timing starts
(the held-out check).  A server serves at most one pass over the pool and
is then replaced by a fresh one with an empty cache, so no sweep of a run
hits the result cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

#: Table-1 data seeds with stored expected rows.
TABLE1_POOL: Tuple[int, ...] = tuple(range(2005, 2021))
#: Random-topology seeds with stored expected rows.
RANDOM_POOL: Tuple[int, ...] = tuple(range(1, 17))

#: The generator-zoo shapes with fixed parameters; each sweep names them
#: after its data seed and adds the random one.  Cyclic shapes get an
#: explicit horizon.
ZOO_FIXED: Tuple[Tuple[str, Dict[str, Any], bool], ...] = (
    ("ring", {}, True),
    ("torus", {}, True),
    ("marked", {}, True),
    ("dag", {}, False),
)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; :data:`FULL` is the benchmark, :data:`TOY` the self-test."""

    sort_length: int
    matmul_size: int
    table1_depths: int
    zoo_depths: int
    horizon: int


FULL = Sizes(
    sort_length=10, matmul_size=3, table1_depths=16, zoo_depths=8,
    horizon=4000,
)
TOY = Sizes(
    sort_length=4, matmul_size=2, table1_depths=3, zoo_depths=2, horizon=300,
)


def default_pool(workload: str) -> Tuple[int, ...]:
    """The stored data-seed pool of *workload*."""
    return RANDOM_POOL if workload == "zoo_horizon" else TABLE1_POOL


def parse_pool(text: str) -> Tuple[int, ...]:
    """``FIRST:COUNT`` → the data seeds ``FIRST .. FIRST + COUNT - 1``."""
    first, count = (int(part) for part in text.split(":"))
    if count < 1:
        raise ValueError("a data-seed pool needs at least one seed")
    return tuple(range(first, first + count))


def table1_sweep(data_seed: int, sizes: Sizes) -> List[Dict[str, Any]]:
    common = {
        "wrappers": ["wp1", "wp2"],
        "configurations": list(range(sizes.table1_depths)),
    }
    return [
        {"spec": {"kind": "workload", "workload": "sort",
                  "length": sizes.sort_length, "seed": data_seed}, **common},
        {"spec": {"kind": "workload", "workload": "matmul",
                  "size": sizes.matmul_size, "seed": data_seed}, **common},
    ]


def zoo_sweep(random_seed: int, sizes: Sizes) -> List[Dict[str, Any]]:
    shapes = [
        (kind, {**params, "name": f"{kind}-s{random_seed}"}, cyclic)
        for kind, params, cyclic in ZOO_FIXED
    ] + [("random", {"seed": random_seed}, True)]
    bodies = []
    for kind, params, cyclic in shapes:
        body: Dict[str, Any] = {
            "spec": {"kind": "topology", "topology": kind, "params": params},
            "wrappers": ["wp1", "wp2"],
            "configurations": list(range(sizes.zoo_depths)),
        }
        if cyclic:
            body["controls"] = {"horizon": sizes.horizon}
        bodies.append(body)
    return bodies


def sweep_for(
    workload: str, pool: Tuple[int, ...], seed: int, k: int, sizes: Sizes
) -> List[Dict[str, Any]]:
    """The bodies of sweep *k* of *workload* in a run with seed *seed*."""
    data_seed = pool[(seed + k) % len(pool)]
    if workload == "zoo_horizon":
        return zoo_sweep(data_seed, sizes)
    return table1_sweep(data_seed, sizes)
