"""Kernel comparison benchmark: reference vs compiled on Table 1 work.

Runs the reference and compiled kernels on the Table 1 workloads (Extraction
Sort and Matrix Multiply under "All 1 (no CU-IC)", WP1 and WP2) in two
instrumentation modes — the historical always-on mode (shell stats +
occupancy) and the uninstrumented objective mode used by the optimiser and
the batch runner — times the default kernel on the serial 64-row Table-1
sweep (µs per simulated cycle, code generation included, gated by
``check_perf_floor.py``), and additionally measures how ``BatchRunner.run_many``
scales when the same configuration batch is sharded across worker processes,
the steady-state detector's speedup on long-horizon objective runs (10k and
100k cycle horizons, enforced by ``check_perf_floor.py``), the
looping-table1 CPU horizon measurement (certified ``schedule_state()``
extrapolation vs full simulation, also enforced by ``check_perf_floor.py``),
the lockstep structure-of-arrays sweep (one vectorised ``run_many`` over N
same-layout lanes vs N scalar runs, enforced by ``check_perf_floor.py
--lockstep-floor``) and the mixed-workload multi-netlist batch smoke.

Every run **appends** a timestamped record to the ``BENCH_kernel.json``
history at the repository root (a JSON list, oldest first), so the
performance trajectory across PRs stays visible instead of being
overwritten.  A pre-history single-record file is migrated into the list on
first append.

Quick mode (for CI smoke runs): set ``REPRO_BENCH_QUICK=1`` to shrink the
workloads and repetition counts.  ``benchmarks/check_perf_floor.py`` reads
the newest record and enforces the compiled-kernel perf floor at PR time.
"""

from __future__ import annotations

import json
import os
import platform
import time
from datetime import datetime, timezone
from pathlib import Path

import pytest


QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
#: Conservative floor asserted by the tests (the measured speedups are
#: recorded verbatim in the JSON perf record).
MIN_COMPILED_SPEEDUP = 6.0
#: Ceiling on the default kernel's cost per simulated cycle over the serial
#: 64-row Table-1 sweep from a cold code cache, source generation and
#: compile() included (about 5 µs measured on a 2-core x86-64 host; the
#: ceiling leaves more than 2x headroom).
MAX_SWEEP_US_PER_CYCLE = 12.0
#: Long-horizon floors: compiled + steady-state extrapolation must beat the
#: reference kernel by 25x at the short horizon and the compiled kernel
#: without detection by 10x at the long horizon (the PR 3 acceptance bar).
MIN_STEADY_VS_REFERENCE = 25.0
MIN_STEADY_VS_COMPILED = 10.0
#: Horizons of the steady-state measurement: (reference-comparison, long).
#: Quick mode keeps only the short horizon — the 10k-cycle point already
#: clears both CI floors by an order of magnitude, and the 100k-cycle full
#: loop dominates the smoke run's wall-clock.
STEADY_HORIZONS = (10_000,) if QUICK else (10_000, 100_000)
#: Lockstep floors: one vectorised run_many over N same-layout lanes must
#: beat N scalar reference runs by 50x and N scalar compiled runs by 5x at
#: the largest lane count (the lockstep PR acceptance bar).  Smaller lane
#: counts are recorded but not gated: NumPy dispatch overhead is amortised
#: over the config axis, so the ratios grow with the lane count.
MIN_LOCKSTEP_VS_REFERENCE = 50.0
MIN_LOCKSTEP_VS_COMPILED = 5.0
LOCKSTEP_LANES = (16, 64, 256)
LOCKSTEP_HORIZON = 600 if QUICK else 2_000
#: Looping-table1 floor: a certified-extrapolated CPU horizon row must beat
#: the same row without detection by this factor (the PR 4 acceptance bar).
MIN_CPU_STEADY_VS_FULL = 20.0
#: Horizon of the looping-CPU measurement (big enough that the one-time
#: detection cost — warmup plus two loop periods of snapshot keys — is well
#: amortised; the speedup keeps growing linearly beyond it).
CPU_STEADY_HORIZON = 300_000
RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"

KERNELS = ("reference", "compiled")


def _workloads():
    from repro.cpu.workloads import make_extraction_sort, make_matrix_multiply

    if QUICK:
        return {
            "extraction_sort": make_extraction_sort(length=4, seed=2005),
            "matrix_multiply": make_matrix_multiply(size=2, seed=2005),
        }
    return {
        "extraction_sort": make_extraction_sort(length=8, seed=2005),
        "matrix_multiply": make_matrix_multiply(size=3, seed=2005),
    }


def _best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _measure(workload, relaxed, instruments):
    """Best-of-N wall time per kernel plus the (asserted equal) cycle counts.

    Repeats are interleaved across kernels so slow machine-load drift hits
    every kernel equally instead of biasing whichever ran last.
    """
    from repro.core import RSConfiguration
    from repro.cpu import build_pipelined_cpu
    from repro.engine import BatchRunner, InstrumentSet

    cpu = build_pipelined_cpu(workload.program)
    config = RSConfiguration.uniform(1, exclude=("CU-IC",))
    repeats = 3 if QUICK else 7
    instrument_set = (
        InstrumentSet(trace=False, shell_stats=True, occupancy=True)
        if instruments
        else InstrumentSet.none()
    )
    runners = {
        kernel: BatchRunner(
            cpu.netlist, relaxed=relaxed, kernel=kernel, instruments=instrument_set
        )
        for kernel in KERNELS
    }
    cycles = {}
    timings = {kernel: float("inf") for kernel in KERNELS}
    for kernel, runner in runners.items():
        # Warm-up (includes the compiled kernel's one-time code generation).
        cycles[kernel] = runner.run(configuration=config, stop_process="CU").cycles
    for _ in range(repeats):
        for kernel, runner in runners.items():
            start = time.perf_counter()
            runner.run(configuration=config, stop_process="CU")
            timings[kernel] = min(timings[kernel], time.perf_counter() - start)
    assert len(set(cycles.values())) == 1, f"kernels disagree on cycles: {cycles}"
    return {
        "cycles": cycles["compiled"],
        "reference_seconds": timings["reference"],
        "compiled_seconds": timings["compiled"],
        "compiled_speedup": timings["reference"] / timings["compiled"],
    }


def _measure_table1_sweep():
    """The serial 64-row Table-1 sweep on the default kernel, end to end.

    Sort (length 10) and matrix multiply (3x3) CPUs, WP1 and WP2, uniform
    relay-station depths 0-15 outside CU-IC: the rows the paper's Table 1
    and the serving benchmark sweep.  Fresh CPUs are built and the
    process-wide code cache is emptied for every repeat, so each one pays
    layout elaboration, source generation and compile() like a fresh
    daemon's first sweep does.
    """
    from repro.core import RSConfiguration
    from repro.cpu import build_pipelined_cpu
    from repro.cpu.workloads import make_extraction_sort, make_matrix_multiply
    from repro.engine import BatchRunner, codegen, resolve_kernel_name

    kernel = resolve_kernel_name(None)
    configs = [
        RSConfiguration.uniform(depth, exclude=("CU-IC",)) for depth in range(16)
    ]

    def sweep():
        with codegen._CODE_CACHE_LOCK:
            codegen._CODE_CACHE.clear()
        cycles = rows = 0
        for workload in (
            make_extraction_sort(length=10, seed=2005),
            make_matrix_multiply(size=3, seed=2005),
        ):
            cpu = build_pipelined_cpu(workload.program)
            for relaxed in (False, True):
                runner = BatchRunner(cpu.netlist, relaxed=relaxed, kernel=kernel)
                for result in runner.run_many(configs, stop_process="CU"):
                    assert not result.failed
                    cycles += result.cycles
                    rows += 1
        return cycles, rows

    cycles, rows = sweep()
    seconds = _best_of(sweep, 2 if QUICK else 3)
    return {
        "kernel": kernel,
        "rows": rows,
        "cycles": cycles,
        "seconds": seconds,
        "us_per_cycle": seconds * 1e6 / cycles,
    }


def _measure_batch_scaling():
    """run_many wall time: serial vs sharded worker pools on one batch."""
    from repro.core import RSConfiguration
    from repro.cpu import build_pipelined_cpu
    from repro.cpu.workloads import make_extraction_sort
    from repro.engine import BatchRunner

    workload = make_extraction_sort(length=4 if QUICK else 8, seed=2005)
    cpu = build_pipelined_cpu(workload.program)
    links = [name for name in cpu.netlist.link_names() if name != "CU-IC"]
    configs = [RSConfiguration.ideal()]
    configs += [RSConfiguration.only(link, 1) for link in links]
    configs += [RSConfiguration.only(link, 2) for link in links]
    configs.append(RSConfiguration.uniform(1, exclude=("CU-IC",)))
    runner = BatchRunner(cpu.netlist, kernel="compiled")

    entry = {"configurations": len(configs), "workers": {}}
    serial = _best_of(
        lambda: runner.run_many(configs, stop_process="CU"), 2 if QUICK else 3
    )
    entry["serial_seconds"] = serial
    for workers in (2, 4):
        if workers > (os.cpu_count() or 1):
            continue
        pooled = _best_of(
            lambda: runner.run_many(configs, workers=workers, stop_process="CU"),
            2 if QUICK else 3,
        )
        entry["workers"][str(workers)] = {
            "seconds": pooled,
            "speedup": serial / pooled,
        }
    return entry


def _measure_steady_state():
    """Long-horizon objective runs: steady-state extrapolation vs full loops.

    The workload is the paper's RS-insertion objective in its purest form — a
    synthetic ring (loop throughput ``m/(m+n)``) evaluated to a fixed cycle
    horizon.  The reference kernel (which never extrapolates) is only timed
    at the short horizon; the long horizon compares the compiled kernel with
    and without the detector.
    """
    from repro.core import ring_netlist
    from repro.engine import BatchRunner

    netlist, rs_counts = ring_netlist(6, rs_total=4)
    runner = BatchRunner(netlist, kernel="compiled")
    reference = BatchRunner(netlist, kernel="reference")
    repeats = 2 if QUICK else 3
    entry = {"netlist": "ring(6, rs=4)", "horizons": {}}
    for horizon in STEADY_HORIZONS:
        steady = _best_of(
            lambda: runner.run(rs_counts=rs_counts, horizon=horizon), repeats
        )
        full = _best_of(
            lambda: runner.run(
                rs_counts=rs_counts, horizon=horizon, steady_state=False
            ),
            repeats,
        )
        point = {
            "compiled_steady_seconds": steady,
            "compiled_seconds": full,
            "steady_vs_compiled": full / steady,
        }
        if horizon == STEADY_HORIZONS[0]:
            ref = _best_of(
                lambda: reference.run(
                    rs_counts=rs_counts, horizon=horizon, steady_state=False
                ),
                repeats,
            )
            point["reference_seconds"] = ref
            point["steady_vs_reference"] = ref / steady
        entry["horizons"][str(horizon)] = point
    # Sanity: extrapolated counts equal full simulation on the long horizon.
    horizon = STEADY_HORIZONS[-1]
    extrapolated = runner.run(rs_counts=rs_counts, horizon=horizon)
    full_result = runner.run(
        rs_counts=rs_counts, horizon=horizon, steady_state=False
    )
    assert extrapolated.extrapolated and extrapolated.period is not None
    assert extrapolated.cycles == full_result.cycles
    assert extrapolated.firings == full_result.firings
    entry["period"] = extrapolated.period
    entry["warmup_cycles"] = extrapolated.warmup_cycles
    return entry


def _measure_looped_cpu():
    """Looping-table1 horizon rows: certified CPU extrapolation vs full runs.

    The Table 1 workload in its looping form (``repeat=True``) under the
    "All 1 (no CU-IC)" row, both wrapper flavours, on the compiled kernel:
    the five CPU units' certified ``schedule_state()`` summaries let the
    steady-state detector extrapolate the horizon-bounded run from one
    detected loop period (DESIGN.md §5).  Counts are asserted identical to
    the detection-disabled run before anything is timed into the record.
    """
    from repro.core import RSConfiguration
    from repro.cpu import build_pipelined_cpu
    from repro.cpu.workloads import make_extraction_sort
    from repro.engine import BatchRunner

    workload = make_extraction_sort(
        length=4 if QUICK else 8, seed=2005, repeat=True
    )
    cpu = build_pipelined_cpu(workload.program)
    config = RSConfiguration.uniform(1, exclude=("CU-IC",))
    horizon = CPU_STEADY_HORIZON // 2 if QUICK else CPU_STEADY_HORIZON
    repeats = 2 if QUICK else 3
    entry = {
        "workload": workload.program.name,
        "horizon": horizon,
        "wrappers": {},
    }
    for relaxed, label in ((False, "WP1"), (True, "WP2")):
        runner = BatchRunner(cpu.netlist, relaxed=relaxed, kernel="compiled")
        controls = dict(
            stop_process="CU", horizon=horizon, steady_state_window=horizon
        )
        extrapolated = runner.run(configuration=config, **controls)
        full_result = runner.run(
            configuration=config, steady_state=False, **controls
        )
        assert extrapolated.extrapolated and extrapolated.period is not None
        assert extrapolated.cycles == full_result.cycles == horizon
        assert extrapolated.firings == full_result.firings
        steady = _best_of(
            lambda: runner.run(configuration=config, **controls), repeats
        )
        full = _best_of(
            lambda: runner.run(
                configuration=config, steady_state=False, **controls
            ),
            repeats,
        )
        entry["wrappers"][label] = {
            "steady_seconds": steady,
            "full_seconds": full,
            "steady_vs_full": full / steady,
            "period": extrapolated.period,
            "warmup_cycles": extrapolated.warmup_cycles,
        }
    return entry


def _measure_lockstep():
    """Lockstep SoA sweeps vs per-lane scalar runs on the objective path.

    The workload is the sweep the lockstep kernel was built for: N
    same-layout ring configurations (per-lane varied relay-station vectors)
    evaluated uninstrumented to a fixed horizon through
    ``BatchRunner.run_many``.  Steady-state detection is disabled for every
    kernel so the measurement isolates the cycle loops themselves — the
    lockstep kernel never detects periods (DESIGN.md §7), and against an
    extrapolating scalar kernel the ratio would mix two unrelated
    optimisations.  The reference kernel is only timed on a small lane
    sample (its per-lane cost is flat, so the N-lane total is ``per-lane x
    N``); compiled and lockstep are timed on the full lane sets.
    """
    from repro.core import ring_netlist
    from repro.engine import BatchRunner, InstrumentSet

    netlist, _default = ring_netlist(6)
    chans = list(netlist.channels)

    def lane_configs(n):
        return [
            {chan: (i + j) % 3 for j, chan in enumerate(chans)}
            for i in range(n)
        ]

    controls = dict(horizon=LOCKSTEP_HORIZON, steady_state=False)
    runners = {
        kernel: BatchRunner(
            netlist, kernel=kernel, instruments=InstrumentSet.none()
        )
        for kernel in ("reference", "compiled", "lockstep")
    }
    # Correctness gate before anything is timed into the record: every
    # lockstep lane bit-identical to the scalar compiled kernel.
    check = lane_configs(max(LOCKSTEP_LANES))
    assert runners["lockstep"].run_many(check, **controls) == runners[
        "compiled"
    ].run_many(check, **controls)

    repeats = 2 if QUICK else 3
    ref_sample = 4 if QUICK else 8
    ref_per_lane = (
        _best_of(
            lambda: runners["reference"].run_many(
                lane_configs(ref_sample), **controls
            ),
            repeats,
        )
        / ref_sample
    )
    entry = {
        "netlist": "ring(6)",
        "horizon": LOCKSTEP_HORIZON,
        "reference_seconds_per_lane": ref_per_lane,
        "lanes": {},
    }
    for n in LOCKSTEP_LANES:
        configs = lane_configs(n)
        lockstep = _best_of(
            lambda: runners["lockstep"].run_many(configs, **controls), repeats
        )
        compiled = _best_of(
            lambda: runners["compiled"].run_many(configs, **controls), repeats
        )
        entry["lanes"][str(n)] = {
            "lockstep_seconds": lockstep,
            "compiled_seconds": compiled,
            "reference_seconds": ref_per_lane * n,
            "lockstep_vs_compiled": compiled / lockstep,
            "lockstep_vs_reference": ref_per_lane * n / lockstep,
        }
    return entry


def _measure_multi_netlist_batch():
    """Mixed-workload batch smoke: sort + matmul layouts on one scheduler."""
    from repro.core import RSConfiguration
    from repro.cpu import build_pipelined_cpu
    from repro.cpu.workloads import make_extraction_sort, make_matrix_multiply
    from repro.engine import BatchRunner, MultiNetlistRunner

    sort_cpu = build_pipelined_cpu(
        make_extraction_sort(length=4 if QUICK else 8, seed=2005).program
    )
    matmul_cpu = build_pipelined_cpu(
        make_matrix_multiply(size=2 if QUICK else 3, seed=2005).program
    )
    multi = MultiNetlistRunner.from_netlists(
        {"sort": sort_cpu.netlist, "matmul": matmul_cpu.netlist},
        kernel="compiled",
    )
    configs = [RSConfiguration.ideal()]
    links = [name for name in sort_cpu.netlist.link_names() if name != "CU-IC"]
    configs += [RSConfiguration.only(link, 1) for link in links]
    configs.append(RSConfiguration.uniform(1, exclude=("CU-IC",)))
    items = [(name, c) for c in configs for name in ("sort", "matmul")]

    entry = {"items": len(items), "workers": {}}
    serial = _best_of(
        lambda: multi.run_many(items, stop_process="CU"), 2 if QUICK else 3
    )
    entry["serial_seconds"] = serial
    for workers in (2, 4):
        if workers > (os.cpu_count() or 1):
            continue
        pooled = _best_of(
            lambda: multi.run_many(items, workers=workers, stop_process="CU"),
            2 if QUICK else 3,
        )
        entry["workers"][str(workers)] = {
            "seconds": pooled,
            "speedup": serial / pooled,
        }
    # Correctness smoke: the mixed batch must match per-layout evaluation.
    mixed = multi.run_many(items, stop_process="CU")
    for name, cpu in (("sort", sort_cpu), ("matmul", matmul_cpu)):
        single = BatchRunner(cpu.netlist, kernel="compiled").run_many(
            configs, stop_process="CU"
        )
        mine = [r for (n, _), r in zip(items, mixed) if n == name]
        assert [r.cycles for r in single] == [r.cycles for r in mine], name
    return entry


def _append_history(record) -> None:
    """Append *record* to the BENCH_kernel.json history (list of runs)."""
    history = []
    if RECORD_PATH.exists():
        try:
            existing = json.loads(RECORD_PATH.read_text())
        except ValueError:
            existing = []
        if isinstance(existing, list):
            history = existing
        elif isinstance(existing, dict):
            history = [existing]  # migrate the pre-history single record
    history.append(record)
    RECORD_PATH.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def kernel_record():
    """Collect every measurement, append one history entry at teardown."""
    record = {
        "benchmark": "kernel",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "quick": QUICK,
        "python": platform.python_version(),
        "config": "All 1 (no CU-IC)",
        "results": {},
    }
    yield record
    entries = list(record["results"].values())
    if entries:  # may be empty when tests were filtered with -k or errored
        record["min_compiled_speedup"] = min(
            e["compiled_speedup"] for e in entries
        )
        record["max_compiled_speedup"] = max(
            e["compiled_speedup"] for e in entries
        )
    _append_history(record)


@pytest.mark.parametrize("workload_name", ["extraction_sort", "matrix_multiply"])
@pytest.mark.parametrize("wrapper", ["WP1", "WP2"])
@pytest.mark.parametrize("mode", ["instrumented", "objective"])
def test_kernel_speedups(kernel_record, workload_name, wrapper, mode):
    """The compiled kernel beats reference on every workload and mode."""
    workload = _workloads()[workload_name]
    entry = _measure(
        workload,
        relaxed=(wrapper == "WP2"),
        instruments=(mode == "instrumented"),
    )
    kernel_record["results"][f"{workload_name}/{wrapper}/{mode}"] = entry
    label = f"{workload_name}/{wrapper}/{mode}"
    assert entry["compiled_speedup"] >= MIN_COMPILED_SPEEDUP, (
        f"compiled kernel only {entry['compiled_speedup']:.2f}x faster than "
        f"reference on {label}"
    )


def test_table1_sweep_cost_per_cycle(kernel_record):
    """The default kernel's µs per simulated cycle on the 64-row sweep."""
    entry = _measure_table1_sweep()
    kernel_record["table1_sweep"] = entry
    assert entry["rows"] == 64
    assert entry["us_per_cycle"] <= MAX_SWEEP_US_PER_CYCLE, (
        f"{entry['kernel']} kernel costs {entry['us_per_cycle']:.2f} us per "
        f"simulated cycle on the Table-1 sweep (ceiling "
        f"{MAX_SWEEP_US_PER_CYCLE})"
    )


def test_batch_shard_scaling(kernel_record):
    """Sharded run_many completes and its scaling numbers are recorded."""
    entry = _measure_batch_scaling()
    kernel_record["batch"] = entry
    assert entry["configurations"] > 0 and entry["serial_seconds"] > 0
    # The pool pays worker start-up + per-worker elaboration; on large
    # batches it wins, on the smoke batch we only require it to function.
    for stats in entry["workers"].values():
        assert stats["seconds"] > 0


def test_steady_state_speedup(kernel_record):
    """Steady-state extrapolation clears the long-horizon floors."""
    entry = _measure_steady_state()
    kernel_record["steady_state"] = entry
    short = entry["horizons"][str(STEADY_HORIZONS[0])]
    long = entry["horizons"][str(STEADY_HORIZONS[-1])]
    assert short["steady_vs_reference"] >= MIN_STEADY_VS_REFERENCE, (
        f"compiled+steady only {short['steady_vs_reference']:.1f}x over "
        f"reference at horizon {STEADY_HORIZONS[0]}"
    )
    assert long["steady_vs_compiled"] >= MIN_STEADY_VS_COMPILED, (
        f"steady-state only {long['steady_vs_compiled']:.1f}x over the "
        f"compiled kernel at horizon {STEADY_HORIZONS[-1]}"
    )


def test_looped_cpu_steady_speedup(kernel_record):
    """Certified-extrapolated CPU horizon rows clear the looping-table1 floor."""
    entry = _measure_looped_cpu()
    kernel_record["looped_cpu"] = entry
    for label, stats in entry["wrappers"].items():
        assert stats["steady_vs_full"] >= MIN_CPU_STEADY_VS_FULL, (
            f"looped-CPU extrapolation only {stats['steady_vs_full']:.1f}x over "
            f"the full horizon run on {label}"
        )


def test_lockstep_speedup(kernel_record):
    """Lockstep sweeps clear the 50x/5x floors at the largest lane count."""
    pytest.importorskip("numpy")
    entry = _measure_lockstep()
    kernel_record["lockstep"] = entry
    top = str(max(LOCKSTEP_LANES))
    stats = entry["lanes"][top]
    assert stats["lockstep_vs_reference"] >= MIN_LOCKSTEP_VS_REFERENCE, (
        f"lockstep only {stats['lockstep_vs_reference']:.1f}x over "
        f"per-lane reference runs at {top} lanes"
    )
    assert stats["lockstep_vs_compiled"] >= MIN_LOCKSTEP_VS_COMPILED, (
        f"lockstep only {stats['lockstep_vs_compiled']:.1f}x over "
        f"per-lane compiled runs at {top} lanes"
    )


def test_multi_netlist_batch_smoke(kernel_record):
    """The mixed-workload scheduler runs (and matches per-layout results)."""
    entry = _measure_multi_netlist_batch()
    kernel_record["multi_netlist"] = entry
    assert entry["items"] > 0 and entry["serial_seconds"] > 0
    for stats in entry["workers"].values():
        assert stats["seconds"] > 0
