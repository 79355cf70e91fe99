"""Engineering benchmark: raw speed of the simulators.

Not a paper experiment — it tracks the cost of regenerating Table 1 by
measuring simulated cycles per second for the golden and latency-insensitive
simulators on the Figure 1 processor.  The latency-insensitive runs are
parametrised over the simulation kernels (``reference`` is the object-based
executable specification, ``compiled`` the production kernel; see
``repro.engine`` and DESIGN.md), so ``pytest benchmarks/benchmark_simulator.py
--benchmark-only`` doubles as the kernel speedup report.
"""

from __future__ import annotations

import pytest


KERNELS = ("reference", "compiled")


def _cpu():
    from repro.cpu import build_pipelined_cpu
    from repro.cpu.workloads import make_extraction_sort

    return build_pipelined_cpu(make_extraction_sort(length=8, seed=2005).program)


def test_golden_simulator_speed(benchmark):
    """Golden simulator: cycles for one 8-element sort run."""
    cpu = _cpu()
    result = benchmark(lambda: cpu.run_golden(record_trace=False))
    assert result.halted


@pytest.mark.parametrize("kernel", KERNELS)
def test_lid_simulator_speed_wp1(benchmark, kernel):
    """WP1 simulator under 'All 1 (no CU-IC)', per kernel."""
    from repro.core import RSConfiguration

    cpu = _cpu()
    config = RSConfiguration.uniform(1, exclude=("CU-IC",))
    result = benchmark(
        lambda: cpu.run_wire_pipelined(
            configuration=config, relaxed=False, record_trace=False, kernel=kernel
        )
    )
    assert result.halted


@pytest.mark.parametrize("kernel", KERNELS)
def test_lid_simulator_speed_wp2(benchmark, kernel):
    """WP2 simulator under 'All 1 (no CU-IC)', per kernel."""
    from repro.core import RSConfiguration

    cpu = _cpu()
    config = RSConfiguration.uniform(1, exclude=("CU-IC",))
    result = benchmark(
        lambda: cpu.run_wire_pipelined(
            configuration=config, relaxed=True, record_trace=False, kernel=kernel
        )
    )
    assert result.halted


@pytest.mark.parametrize("kernel", KERNELS)
def test_lid_objective_mode_speed(benchmark, kernel):
    """Uninstrumented evaluation (the optimiser objective hot path)."""
    from repro.core import RSConfiguration
    from repro.engine import BatchRunner

    cpu = _cpu()
    config = RSConfiguration.uniform(1, exclude=("CU-IC",))
    runner = BatchRunner(cpu.netlist, relaxed=False, kernel=kernel)
    result = benchmark(lambda: runner.run(configuration=config, stop_process="CU"))
    assert result.halted
