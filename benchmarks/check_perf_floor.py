"""Perf-floor gate: fail if the compiled kernel's speedup regressed.

Reads the newest record of the ``BENCH_kernel.json`` history (produced by
``benchmark_kernel.py``) and exits non-zero when

* the compiled kernel's minimum speedup over the reference kernel across
  all Table 1 rows drops below ``--floor``;
* the default kernel costs more than ``SWEEP_US_CEILING`` µs per simulated
  cycle on the serial 64-row Table-1 sweep from a cold code cache (an
  absolute gate next to the ratios);
* the long-horizon steady-state floors regress: compiled + steady-state
  extrapolation must beat the reference kernel by ``--steady-floor`` at the
  short measurement horizon and the compiled kernel without detection by
  ``--steady-compiled-floor`` at the long horizon;
* the looping-table1 CPU floor regresses: a certified-extrapolated CPU
  horizon row must beat the same row without detection by
  ``--cpu-steady-floor`` on every wrapper flavour;
* with ``--lockstep-floor`` / ``--lockstep-compiled-floor``: the lockstep
  structure-of-arrays sweep at the record's largest lane count must beat
  per-lane reference runs by the former and per-lane compiled runs by the
  latter (omitted: not checked — e.g. on a NumPy-free record);
* the mixed-workload multi-netlist batch smoke is missing from the record;
* with ``--cache-floor`` (reads the newest ``BENCH_service.json`` record,
  produced by ``benchmark_service.py``): a warm-cache re-run of the 64-row
  mixed sweep through the evaluation service must be at least that many
  times faster than the cold run, and the cold run must have streamed its
  first row before half its wall-clock;
* with ``--topology-floor`` (reads the newest ``BENCH_topology.json``
  record, produced by ``benchmark_topology.py``): the default kernel's
  speedup over the reference kernel on the generated *chain* topology — the
  guard that the topology-general index layouts did not tax the original
  chain-shaped path.

CI runs this after the quick benchmark so hot-path regressions are caught
at PR time::

    python benchmarks/check_perf_floor.py --floor 6 --steady-floor 25 \
        --cpu-steady-floor 20 --lockstep-floor 50 \
        --lockstep-compiled-floor 5 --cache-floor 50
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_RECORD = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"
DEFAULT_SERVICE_RECORD = (
    Path(__file__).resolve().parent.parent / "BENCH_service.json"
)
DEFAULT_TOPOLOGY_RECORD = (
    Path(__file__).resolve().parent.parent / "BENCH_topology.json"
)
#: Ceiling on the default kernel's µs per simulated cycle over the serial
#: 64-row Table-1 sweep; the same value as ``MAX_SWEEP_US_PER_CYCLE`` in
#: ``benchmark_kernel.py``, which asserts it when the record is written.
SWEEP_US_CEILING = 12.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--floor", type=float, default=6.0,
        help="minimum compiled/reference speedup (default: 6)",
    )
    parser.add_argument(
        "--steady-floor", type=float, default=25.0,
        help=(
            "minimum compiled+steady-state speedup over the reference kernel "
            "on the long-horizon objective (default: 25)"
        ),
    )
    parser.add_argument(
        "--steady-compiled-floor", type=float, default=10.0,
        help=(
            "minimum steady-state speedup over the compiled kernel without "
            "detection at the long horizon (default: 10)"
        ),
    )
    parser.add_argument(
        "--cpu-steady-floor", type=float, default=20.0,
        help=(
            "minimum certified-extrapolation speedup over the full run on "
            "the looping-table1 CPU horizon rows (default: 20)"
        ),
    )
    parser.add_argument(
        "--lockstep-floor", type=float, default=None, metavar="X",
        help=(
            "minimum lockstep speedup over per-lane reference runs at the "
            "largest benchmarked lane count (omitted: not checked)"
        ),
    )
    parser.add_argument(
        "--lockstep-compiled-floor", type=float, default=None, metavar="X",
        help=(
            "minimum lockstep speedup over per-lane compiled runs at the "
            "largest benchmarked lane count (omitted: not checked)"
        ),
    )
    parser.add_argument(
        "--record", type=Path, default=DEFAULT_RECORD,
        help="path to the BENCH_kernel.json history",
    )
    parser.add_argument(
        "--cache-floor", type=float, default=None, metavar="X",
        help=(
            "minimum warm-cache/cold speedup of the 64-row service sweep "
            "(reads the BENCH_service.json history; omitted: not checked)"
        ),
    )
    parser.add_argument(
        "--service-record", type=Path, default=DEFAULT_SERVICE_RECORD,
        help="path to the BENCH_service.json history",
    )
    parser.add_argument(
        "--topology-floor", type=float, default=None, metavar="X",
        help=(
            "minimum default-kernel/reference speedup on the generated chain "
            "topology "
            "(reads the BENCH_topology.json history; omitted: not checked)"
        ),
    )
    parser.add_argument(
        "--topology-record", type=Path, default=DEFAULT_TOPOLOGY_RECORD,
        help="path to the BENCH_topology.json history",
    )
    args = parser.parse_args(argv)

    if not args.record.exists():
        print(f"perf floor: no record at {args.record}", file=sys.stderr)
        return 2
    history = json.loads(args.record.read_text())
    if isinstance(history, dict):
        history = [history]
    if not history:
        print("perf floor: empty benchmark history", file=sys.stderr)
        return 2
    latest = history[-1]
    results = latest.get("results", {})
    if not results:
        print("perf floor: newest record has no results", file=sys.stderr)
        return 2

    failed = False

    worst_label, worst = min(
        results.items(), key=lambda item: item[1]["compiled_speedup"]
    )
    speedup = worst["compiled_speedup"]
    print(
        f"perf floor: compiled/reference min {speedup:.2f}x "
        f"({worst_label}), floor {args.floor:.2f}x "
        f"[record {latest.get('timestamp', '?')}, quick={latest.get('quick')}]"
    )
    if speedup < args.floor:
        print(
            f"perf floor FAILED: {speedup:.2f}x < {args.floor:.2f}x on "
            f"{worst_label}",
            file=sys.stderr,
        )
        failed = True

    failed |= _check_sweep_ceiling(latest, SWEEP_US_CEILING)

    steady = latest.get("steady_state")
    if not steady:
        print(
            "perf floor FAILED: record carries no steady_state measurement",
            file=sys.stderr,
        )
        failed = True
    else:
        horizons = steady.get("horizons", {})
        vs_reference = min(
            (
                point["steady_vs_reference"]
                for point in horizons.values()
                if "steady_vs_reference" in point
            ),
            default=0.0,
        )
        # The compiled-kernel floor applies at the long horizon only (the
        # benchmark's contract): shorter horizons skip fewer periods and
        # legitimately show smaller ratios.
        long_horizon = max(horizons, key=int, default=None)
        vs_compiled = (
            horizons[long_horizon]["steady_vs_compiled"]
            if long_horizon is not None
            else 0.0
        )
        print(
            f"perf floor: steady-state {vs_reference:.1f}x over reference "
            f"(floor {args.steady_floor:.1f}x), {vs_compiled:.1f}x over "
            f"compiled (floor {args.steady_compiled_floor:.1f}x), "
            f"period={steady.get('period')}"
        )
        if vs_reference < args.steady_floor:
            print(
                f"perf floor FAILED: steady-state {vs_reference:.1f}x < "
                f"{args.steady_floor:.1f}x over reference",
                file=sys.stderr,
            )
            failed = True
        if vs_compiled < args.steady_compiled_floor:
            print(
                f"perf floor FAILED: steady-state {vs_compiled:.1f}x < "
                f"{args.steady_compiled_floor:.1f}x over compiled",
                file=sys.stderr,
            )
            failed = True

    looped = latest.get("looped_cpu")
    if not looped:
        print(
            "perf floor FAILED: record carries no looping-CPU measurement",
            file=sys.stderr,
        )
        failed = True
    else:
        wrappers = looped.get("wrappers", {})
        worst_wrapper, worst_cpu = min(
            wrappers.items(), key=lambda item: item[1]["steady_vs_full"]
        )
        cpu_speedup = worst_cpu["steady_vs_full"]
        print(
            f"perf floor: looped-CPU extrapolation min {cpu_speedup:.1f}x "
            f"over full ({worst_wrapper}, horizon {looped.get('horizon')}), "
            f"floor {args.cpu_steady_floor:.1f}x"
        )
        if cpu_speedup < args.cpu_steady_floor:
            print(
                f"perf floor FAILED: looped-CPU extrapolation {cpu_speedup:.1f}x "
                f"< {args.cpu_steady_floor:.1f}x on {worst_wrapper}",
                file=sys.stderr,
            )
            failed = True

    if args.lockstep_floor is not None or args.lockstep_compiled_floor is not None:
        failed |= _check_lockstep_floor(
            latest, args.lockstep_floor, args.lockstep_compiled_floor
        )

    if "multi_netlist" not in latest:
        print(
            "perf floor FAILED: record carries no multi-netlist batch smoke",
            file=sys.stderr,
        )
        failed = True
    else:
        multi = latest["multi_netlist"]
        print(
            f"perf floor: multi-netlist smoke ok "
            f"({multi.get('items')} items, "
            f"serial {multi.get('serial_seconds', 0):.3f}s)"
        )

    if args.cache_floor is not None:
        failed |= _check_cache_floor(
            args.service_record, args.cache_floor
        )

    if args.topology_floor is not None:
        failed |= _check_topology_floor(
            args.topology_record, args.topology_floor
        )

    return 1 if failed else 0


def _check_sweep_ceiling(latest, ceiling: float) -> bool:
    """Enforce the Table-1 sweep's µs-per-cycle ceiling; True on failure."""
    sweep = latest.get("table1_sweep")
    if not sweep:
        print(
            "perf floor FAILED: record carries no table1_sweep measurement",
            file=sys.stderr,
        )
        return True
    cost = sweep["us_per_cycle"]
    print(
        f"perf floor: {sweep.get('kernel')} kernel {cost:.2f} us/cycle on "
        f"the {sweep.get('rows')}-row Table-1 sweep, ceiling {ceiling:.2f}"
    )
    if cost > ceiling:
        print(
            f"perf floor FAILED: {cost:.2f} us/cycle > {ceiling:.2f} on the "
            "Table-1 sweep",
            file=sys.stderr,
        )
        return True
    return False


def _check_lockstep_floor(latest, floor, compiled_floor) -> bool:
    """Enforce the lockstep sweep floors; returns True on failure.

    The floors apply at the largest lane count of the record's lockstep
    measurement — NumPy dispatch overhead is amortised over the config
    axis, so that is the ratio the lockstep kernel is accountable for.
    """
    lockstep = latest.get("lockstep")
    if not lockstep or not lockstep.get("lanes"):
        print(
            "perf floor FAILED: record carries no lockstep measurement "
            "(run benchmark_kernel.py with NumPy available)",
            file=sys.stderr,
        )
        return True
    top = max(lockstep["lanes"], key=int)
    stats = lockstep["lanes"][top]
    vs_reference = stats.get("lockstep_vs_reference", 0.0)
    vs_compiled = stats.get("lockstep_vs_compiled", 0.0)
    print(
        f"perf floor: lockstep at {top} lanes {vs_reference:.1f}x over "
        f"reference (floor {floor if floor is not None else '-'}), "
        f"{vs_compiled:.1f}x over compiled "
        f"(floor {compiled_floor if compiled_floor is not None else '-'})"
    )
    failed = False
    if floor is not None and vs_reference < floor:
        print(
            f"perf floor FAILED: lockstep {vs_reference:.1f}x < {floor:.1f}x "
            f"over reference at {top} lanes",
            file=sys.stderr,
        )
        failed = True
    if compiled_floor is not None and vs_compiled < compiled_floor:
        print(
            f"perf floor FAILED: lockstep {vs_compiled:.1f}x < "
            f"{compiled_floor:.1f}x over compiled at {top} lanes",
            file=sys.stderr,
        )
        failed = True
    return failed


def _check_cache_floor(record_path: Path, floor: float) -> bool:
    """Enforce the warm-cache sweep floor; returns True on failure."""
    if not record_path.exists():
        print(
            f"perf floor FAILED: no service record at {record_path} "
            "(run benchmarks/benchmark_service.py first)",
            file=sys.stderr,
        )
        return True
    history = json.loads(record_path.read_text())
    if isinstance(history, dict):
        history = [history]
    latest = history[-1] if history else {}
    sweep = latest.get("streamed_mixed_sweep")
    if not sweep:
        print(
            "perf floor FAILED: newest service record carries no "
            "streamed_mixed_sweep measurement",
            file=sys.stderr,
        )
        return True
    speedup = sweep.get("warm_speedup", 0.0)
    fraction = sweep.get("first_row_fraction", 1.0)
    print(
        f"perf floor: warm-cache sweep {speedup:.1f}x over cold "
        f"({sweep.get('rows')} rows, floor {floor:.1f}x), first row at "
        f"{100 * fraction:.1f}% of the cold wall-clock "
        f"[record {latest.get('timestamp', '?')}, quick={latest.get('quick')}]"
    )
    failed = False
    if speedup < floor:
        print(
            f"perf floor FAILED: warm-cache sweep {speedup:.1f}x < "
            f"{floor:.1f}x over cold",
            file=sys.stderr,
        )
        failed = True
    if fraction > 0.5:
        print(
            f"perf floor FAILED: first streamed row at {fraction:.2f} of "
            "the cold wall-clock (needs <= 0.5: the cold run must stream "
            "partial results)",
            file=sys.stderr,
        )
        failed = True
    return failed


def _check_topology_floor(record_path: Path, floor: float) -> bool:
    """Enforce the generated-chain default/reference floor; True on failure."""
    if not record_path.exists():
        print(
            f"perf floor FAILED: no topology record at {record_path} "
            "(run benchmarks/benchmark_topology.py first)",
            file=sys.stderr,
        )
        return True
    history = json.loads(record_path.read_text())
    if isinstance(history, dict):
        history = [history]
    latest = history[-1] if history else {}
    chain = latest.get("chain")
    if not chain:
        print(
            "perf floor FAILED: newest topology record carries no chain "
            "measurement",
            file=sys.stderr,
        )
        return True
    speedup = chain.get("default_vs_reference", 0.0)
    print(
        f"perf floor: topology chain {chain.get('kernel')}/reference "
        f"{speedup:.1f}x "
        f"({chain.get('stages')} stages, {chain.get('cycles')} cycles, "
        f"floor {floor:.1f}x) "
        f"[record {latest.get('timestamp', '?')}, quick={latest.get('quick')}]"
    )
    if speedup < floor:
        print(
            f"perf floor FAILED: chain-topology default kernel {speedup:.1f}x < "
            f"{floor:.1f}x over reference",
            file=sys.stderr,
        )
        return True
    return False


if __name__ == "__main__":
    sys.exit(main())
