"""Steady-state detection, analytic extrapolation, horizon mode, multi-netlist batch.

The heart of this module is the extrapolation property suite: on every
netlist that supports steady-state detection, a run with the detector armed
must produce results **identical** to full simulation — cycles, firings,
halted flag, stall statistics and occupancy maxima (per relay station
included) — across random netlists in plain and certified snapshot modes,
relay-station placements (chains deep enough that a packed relay word
passes 64 bits), RS and queue capacities, wrapper flavours, instrument
selections and stop modes.  The compiled kernel implements detection; the
reference kernel stays the executable specification and never
extrapolates.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    SCHEDULE_INERT,
    Channel,
    CounterSource,
    DeadlockError,
    FunctionProcess,
    Netlist,
    PassthroughProcess,
    RSConfiguration,
    SimulationError,
    SinkProcess,
    ring_netlist,
    run_lid,
)
from repro.core.simulator import LidResult, LidSimulator
from repro.cpu import build_pipelined_cpu
from repro.cpu.workloads import make_extraction_sort
from repro.engine import (
    BatchRunner,
    InstrumentSet,
    MultiNetlistRunner,
    PeriodMemory,
    STEADY_STATE_ENV_VAR,
    detection_plan,
    elaborate,
    make_kernel,
    resolve_steady_state,
)
from repro.engine.codegen import compiled_run_fn, generate_run_source
from repro.engine.kernel import RunControls
from repro.engine.steady_state import periods_to_skip

#: Parametrisations over the detecting kernel's registered names.
#: ``"fast"`` is the compiled kernel's former name, kept for existing
#: callers; its ``[fast]`` test IDs are kept so the suite's IDs stay stable.
#: In-test comparisons run ``"compiled"`` only.
DETECTING_KERNELS = ("fast", "compiled")

#: Relay-station depths drawn per channel: shallow chains, and chains deep
#: enough that the packed occupancy word passes 64 bits at every capacity.
RS_DEPTHS = st.one_of(
    st.integers(min_value=0, max_value=3), st.integers(min_value=30, max_value=45)
)


# ---------------------------------------------------------------------------
# Random schedule-certifiable netlists
# ---------------------------------------------------------------------------

def _transition(proc_index, n_outs):
    """Mixes input values into the outputs; keeps a separate oracle counter.

    The state is ``(value_mix, firing_counter)``: the mix is data-dependent
    (so token values genuinely circulate and change), the counter advances by
    exactly one per firing (so the oracle below is value-independent, as the
    ``schedule_state`` contract requires).
    """

    def transition(state, inputs):
        mix, count = state
        acc = mix * 31 + proc_index
        for port in sorted(inputs):
            value = inputs[port]
            acc = (acc * 17 + (0 if value is None else int(value) + 1)) % 100003
        return (acc, count + 1), {f"o{k}": (acc + k) % 1009 for k in range(n_outs)}

    return transition


def _oracle(ports, period):
    """A WP2 oracle requiring a rotating subset driven by the firing counter."""

    def oracle(state):
        count = state[1]
        keep = [port for k, port in enumerate(ports) if (count + k) % period != 0]
        return frozenset(keep)

    return oracle


def _complete_transition(proc_index, n_outs, period):
    """Data-dependent control over a small state: ``(value mix, counter)``.

    Both components are bounded, so full-state recurrences exist and the
    certified (value-keyed) detector has something to find.
    """

    def transition(state, inputs):
        mix, count = state
        acc = mix * 3 + proc_index
        for port in sorted(inputs):
            value = inputs[port]
            acc += 0 if value is None else value
        return (acc % 7, (count + 1) % period), {
            f"o{k}": (acc + k) % 5 for k in range(n_outs)
        }

    return transition


class _CompleteProcess(FunctionProcess):
    """A function process whose whole (small) state is its schedule summary."""

    schedule_complete = True

    def schedule_state(self):
        return self.state


@st.composite
def certifiable_netlists(draw):
    """Random netlists whose every process supports steady-state detection.

    Plain netlists keep token values out of control; certified ones
    (``schedule_complete`` processes) let values steer the oracles.
    """
    certified = draw(st.booleans())
    n_procs = draw(st.integers(min_value=1, max_value=4))
    n_outs = [draw(st.integers(min_value=1, max_value=2)) for _ in range(n_procs)]
    n_ins = [draw(st.integers(min_value=0 if n_procs > 1 else 1, max_value=2))
             for _ in range(n_procs)]
    if all(n == 0 for n in n_ins):
        n_ins[0] = 1

    processes = []
    for p in range(n_procs):
        ports = tuple(f"i{k}" for k in range(n_ins[p]))
        period = draw(st.integers(min_value=0, max_value=3))
        oracle = _oracle(ports, period) if ports and period else None
        if certified:
            processes.append(
                _CompleteProcess(
                    name=f"p{p}",
                    inputs=ports,
                    outputs=tuple(f"o{k}" for k in range(n_outs[p])),
                    transition=_complete_transition(p, n_outs[p], period or 1),
                    initial_state=(p % 7, 0),
                    oracle=oracle,
                )
            )
            continue
        processes.append(
            FunctionProcess(
                name=f"p{p}",
                inputs=ports,
                outputs=tuple(f"o{k}" for k in range(n_outs[p])),
                transition=_transition(p, n_outs[p]),
                initial_state=(p, 0),
                oracle=oracle,
                # The oracle depends only on the firing counter mod its
                # rotation period: that residue is the complete
                # schedule-relevant state.
                schedule_state=(
                    (lambda state, m=period: state[1] % m) if oracle else None
                ),
            )
        )

    channels = []
    rs_counts = {}
    cid = 0
    for p in range(n_procs):
        for k in range(n_ins[p]):
            src = draw(st.integers(min_value=0, max_value=n_procs - 1))
            src_port = draw(st.integers(min_value=0, max_value=n_outs[src] - 1))
            name = f"c{cid}"
            channels.append(
                Channel(
                    name=name,
                    source=f"p{src}",
                    source_port=f"o{src_port}",
                    dest=f"p{p}",
                    dest_port=f"i{k}",
                    initial=draw(st.integers(min_value=0, max_value=5)),
                )
            )
            rs_counts[name] = draw(RS_DEPTHS)
            cid += 1

    netlist = Netlist(processes, channels, name="certifiable")
    relaxed = draw(st.booleans())
    queue_capacity = draw(st.integers(min_value=1, max_value=5))
    stop = draw(st.sampled_from(["target", "horizon"]))
    options = dict(
        rs_capacity=draw(st.integers(min_value=1, max_value=3)),
        instruments=InstrumentSet(
            trace=False,  # a trace switches detection off
            shell_stats=draw(st.booleans()),
            occupancy=draw(st.booleans()),
        ),
    )
    return netlist, rs_counts, relaxed, queue_capacity, stop, options


def _outcome(netlist, rs_counts, relaxed, queue_capacity, kernel, steady, stop,
             rs_capacity, instruments):
    """Run one kernel and normalise the outcome for comparison."""
    simulator = LidSimulator(
        netlist,
        rs_counts=rs_counts,
        relaxed=relaxed,
        queue_capacity=queue_capacity,
        rs_capacity=rs_capacity,
        kernel=kernel,
        instruments=instruments,
    )
    kwargs = dict(steady_state=steady, max_cycles=50_000, deadlock_limit=200)
    if stop == "target":
        kwargs["target_firings"] = {netlist.process_names()[0]: 4_000}
    else:
        kwargs["horizon"] = 15_000
    try:
        result = simulator.run(**kwargs)
    except DeadlockError:
        return ("deadlock", None)
    except SimulationError:
        return ("timeout", None)
    return ("ok", result)


def _assert_matches_full(full: LidResult, got: LidResult) -> None:
    assert got.cycles == full.cycles
    assert got.firings == full.firings
    assert got.halted == full.halted
    assert got.shell_stats == full.shell_stats
    assert got.max_queue_occupancy == full.max_queue_occupancy


class TestExtrapolationEquivalence:
    @given(data=certifiable_netlists())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_extrapolated_equals_full_simulation(self, data):
        """Armed detector == full simulation, plain and certified."""
        netlist, rs_counts, relaxed, queue_capacity, stop, options = data
        kind_full, full = _outcome(
            netlist, rs_counts, relaxed, queue_capacity, "compiled", False,
            stop, **options,
        )
        kind, got = _outcome(
            netlist, rs_counts, relaxed, queue_capacity, "compiled", True,
            stop, **options,
        )
        assert kind == kind_full
        if full is not None:
            _assert_matches_full(full, got)

    @pytest.mark.parametrize("kernel", DETECTING_KERNELS)
    @pytest.mark.parametrize("relaxed", [False, True])
    @pytest.mark.parametrize("stages,rs_total", [(1, 1), (3, 2), (5, 3)])
    def test_rings_extrapolate(self, kernel, relaxed, stages, rs_total):
        """Rings recur with period stages + rs_total and extrapolate exactly."""
        netlist, rs_counts = ring_netlist(stages, rs_total=rs_total)
        reference = run_lid(
            netlist, rs_counts=rs_counts, relaxed=relaxed, kernel="reference",
            record_trace=False, horizon=50_000,
        )
        got = run_lid(
            netlist, rs_counts=rs_counts, relaxed=relaxed, kernel=kernel,
            record_trace=False, horizon=50_000,
        )
        _assert_matches_full(reference, got)
        assert got.extrapolated
        assert got.period is not None and got.period % (stages + rs_total) == 0
        assert reference.period is None and not reference.extrapolated

    @pytest.mark.parametrize("kernel", DETECTING_KERNELS)
    def test_unreachable_target_times_out_fast(self, kernel):
        """An unreachable firing target still raises, without simulating it all."""
        source = CounterSource("src", limit=5)
        sink = SinkProcess("sink")
        netlist = Netlist(
            [source, sink],
            [Channel("data", "src", "out", "sink", "in", initial=0)],
        )
        for steady in (True, False):
            with pytest.raises(DeadlockError):
                run_lid(
                    netlist, kernel=kernel, record_trace=False,
                    target_firings={"sink": 100}, max_cycles=100_000,
                    deadlock_limit=500, steady_state=steady,
                )

    @pytest.mark.parametrize("kernel", DETECTING_KERNELS)
    def test_done_source_results_identical(self, kernel):
        """A limited source (monotone schedule state) never mis-extrapolates."""
        source = CounterSource("src", limit=30)
        mid = PassthroughProcess("mid")
        sink = SinkProcess("sink")
        netlist = Netlist(
            [source, mid, sink],
            [
                Channel("a", "src", "out", "mid", "in", initial=0),
                Channel("b", "mid", "out", "sink", "in", initial=0),
            ],
        )
        full = run_lid(
            netlist, rs_counts={"a": 2}, kernel=kernel, record_trace=False,
            steady_state=False, max_cycles=10_000,
        )
        got = run_lid(
            netlist, rs_counts={"a": 2}, kernel=kernel, record_trace=False,
            steady_state=True, max_cycles=10_000,
        )
        _assert_matches_full(full, got)

    def test_case_study_cpu_is_certified(self):
        """All five CPU units declare complete summaries -> certified plan."""
        cpu = build_pipelined_cpu(make_extraction_sort(length=5, seed=11).program)
        config = RSConfiguration.uniform(1, exclude=("CU-IC",))
        model = elaborate(
            cpu.netlist,
            rs_counts=config.per_channel(cpu.netlist),
        )
        plan = detection_plan(model, InstrumentSet.none(), True, None, None)
        assert plan is not None and plan.certified
        assert plan.verify_fns and len(plan.verify_fns) == len(plan.sig_fns)
        # Certified plans only arm on asymptotic runs (horizon / targets):
        # a complete-state recurrence cannot precede a done-based stop.
        assert (
            detection_plan(
                model, InstrumentSet.none(), True, None, None, asymptotic=False
            )
            is None
        )

    def test_one_shot_cpu_runs_stay_unextrapolated(self):
        """Done-stopped (terminating) CPU runs never arm the detector."""
        cpu = build_pipelined_cpu(make_extraction_sort(length=5, seed=11).program)
        config = RSConfiguration.uniform(1, exclude=("CU-IC",))
        full = cpu.run_wire_pipelined(
            configuration=config, record_trace=False, kernel="compiled"
        )
        assert full.period is None and not full.extrapolated


# ---------------------------------------------------------------------------
# Looping CPU workloads (certified detection, DESIGN.md §5)
# ---------------------------------------------------------------------------

def _assert_cpu_identical(full: LidResult, got: LidResult) -> None:
    _assert_matches_full(full, got)
    assert got.extrapolated and got.period is not None


class TestLoopedCpuExtrapolation:
    """`table1 --horizon` acceptance: looped CPU rows extrapolate exactly."""

    CONFIG = staticmethod(
        lambda: RSConfiguration.uniform(1, exclude=("CU-IC",))
    )

    @pytest.mark.parametrize("kernel", DETECTING_KERNELS)
    @pytest.mark.parametrize("relaxed", [False, True])
    @pytest.mark.parametrize("workload_kind", ["sort", "matmul"])
    def test_extrapolated_equals_full_simulation(
        self, kernel, relaxed, workload_kind
    ):
        from repro.cpu.workloads import make_matrix_multiply

        if workload_kind == "sort":
            workload = make_extraction_sort(length=6, seed=7, repeat=True)
        else:
            workload = make_matrix_multiply(size=2, seed=7, repeat=True)
        cpu = build_pipelined_cpu(workload.program)
        config = self.CONFIG()
        full = cpu.run_wire_pipelined(
            configuration=config, relaxed=relaxed, record_trace=False,
            kernel=kernel, horizon=25_000, steady_state=False,
        )
        full_memory = list(cpu.data_cache.memory)
        got = cpu.run_wire_pipelined(
            configuration=config, relaxed=relaxed, record_trace=False,
            kernel=kernel, horizon=25_000, steady_state=True,
        )
        _assert_cpu_identical(full, got)
        # schedule_jump realigns the units' absolute-tag state, so even the
        # architectural results (data memory) match full simulation exactly.
        assert list(cpu.data_cache.memory) == full_memory
        assert not cpu.check_memory(workload.expected_memory)

    @pytest.mark.parametrize("kernel", DETECTING_KERNELS)
    def test_target_firings_stop_mode(self, kernel):
        workload = make_extraction_sort(length=5, seed=3, repeat=True)
        cpu = build_pipelined_cpu(workload.program)
        config = self.CONFIG()
        kwargs = dict(
            configuration=config, relaxed=True, record_trace=False,
            kernel=kernel, target_firings={"CU": 12_000}, max_cycles=100_000,
            steady_state_window=50_000,
        )
        full = run_lid(cpu.netlist, steady_state=False, **kwargs)
        got = run_lid(cpu.netlist, steady_state=True, **kwargs)
        _assert_cpu_identical(full, got)
        assert got.firings["CU"] >= 12_000

    def test_multicycle_control_style_extrapolates(self):
        from repro.cpu import build_multicycle_cpu

        workload = make_extraction_sort(length=5, seed=3, repeat=True)
        cpu = build_multicycle_cpu(workload.program)
        config = self.CONFIG()
        full = cpu.run_wire_pipelined(
            configuration=config, relaxed=True, record_trace=False,
            horizon=30_000, steady_state=False,
        )
        got = cpu.run_wire_pipelined(
            configuration=config, relaxed=True, record_trace=False,
            horizon=30_000, steady_state=True,
        )
        _assert_cpu_identical(full, got)

    @given(data=st.data())
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_looped_cpu_extrapolates_exactly(self, data):
        """Hypothesis: extrapolated == full across kernels and stop modes."""
        from repro.cpu.workloads import make_matrix_multiply

        if data.draw(st.booleans(), label="use_sort"):
            workload = make_extraction_sort(
                length=data.draw(st.integers(3, 5), label="length"),
                seed=data.draw(st.integers(0, 99), label="seed"),
                repeat=True,
            )
        else:
            workload = make_matrix_multiply(
                size=2,
                seed=data.draw(st.integers(0, 99), label="seed"),
                repeat=True,
            )
        cpu = build_pipelined_cpu(workload.program)
        links = [name for name in cpu.netlist.link_names() if name != "CU-IC"]
        assignment = {
            link: data.draw(st.integers(0, 2), label=link) for link in links
        }
        config = RSConfiguration.from_mapping(assignment, label="candidate")
        kwargs = dict(
            configuration=config,
            relaxed=data.draw(st.booleans(), label="relaxed"),
            queue_capacity=data.draw(st.integers(2, 6), label="capacity"),
            record_trace=False,
            max_cycles=120_000,
        )
        if data.draw(st.booleans(), label="horizon_stop"):
            kwargs["horizon"] = 15_000
        else:
            kwargs["target_firings"] = {"CU": 6_000}
            kwargs["steady_state_window"] = 15_000
        full = run_lid(
            cpu.netlist, steady_state=False, kernel="compiled", **kwargs
        )
        got = run_lid(cpu.netlist, steady_state=True, kernel="compiled", **kwargs)
        _assert_matches_full(full, got)


class TestLoopedWorkloads:
    def test_program_looped_replaces_halt_with_jump(self):
        workload = make_extraction_sort(length=4, seed=1)
        looped = workload.program.looped()
        assert looped.name.endswith("-looped")
        assert len(looped.instructions) == len(workload.program.instructions)
        assert not any(i.is_halt for i in looped.instructions)
        jumps = [
            (original, replaced)
            for original, replaced in zip(
                workload.program.instructions, looped.instructions
            )
            if original != replaced
        ]
        assert jumps, "the HALT must have been rewritten"
        for original, replaced in jumps:
            assert original.is_halt
            assert replaced.is_jump and replaced.imm == 0

    def test_workload_looped_is_idempotent_and_marked(self):
        workload = make_extraction_sort(length=4, seed=1)
        looped = workload.looped()
        assert not workload.looping and looped.looping
        assert looped.looped() is looped
        assert looped.expected_memory == workload.expected_memory

    def test_repeat_flag_builds_looping_workloads(self):
        from repro.cpu.workloads import make_matrix_multiply

        assert make_extraction_sort(length=4, repeat=True).looping
        assert make_matrix_multiply(size=2, repeat=True).looping

    def test_table1_horizon_rows_extrapolate_identically(self):
        """Acceptance: horizon rows == full (detection-off) simulation."""
        from repro.experiments.table1 import evaluate_rows

        workload = make_extraction_sort(length=4, seed=2005)
        configurations = [
            RSConfiguration.ideal(),
            RSConfiguration.uniform(1, exclude=("CU-IC",)),
        ]
        on = evaluate_rows(
            workload, configurations, kernel="compiled", horizon=20_000,
        )
        off = evaluate_rows(
            workload, configurations, kernel="compiled", horizon=20_000,
            steady_state=False,
        )
        for row_on, row_off in zip(on.rows, off.rows):
            assert row_on.wp1_cycles == row_off.wp1_cycles == 20_000
            assert row_on.wp2_cycles == row_off.wp2_cycles == 20_000
            assert row_on.wp1_throughput == row_off.wp1_throughput
            assert row_on.wp2_throughput == row_off.wp2_throughput

    def test_table1_horizon_rows_report_extrapolated_batches(self):
        """Horizon rows actually run extrapolated (not merely identical)."""
        from repro.engine import BatchRunner

        workload = make_extraction_sort(length=4, seed=2005, repeat=True)
        cpu = build_pipelined_cpu(workload.program)
        runner = BatchRunner(cpu.netlist, relaxed=True, kernel="compiled")
        [summary] = runner.run_many(
            [RSConfiguration.uniform(1, exclude=("CU-IC",))],
            stop_process="CU", horizon=20_000, steady_state_window=20_000,
        )
        assert summary.extrapolated and summary.period is not None
        assert summary.cycles == 20_000


# ---------------------------------------------------------------------------
# When detection must stay off
# ---------------------------------------------------------------------------

class TestDetectionGating:
    def _ring_model(self):
        netlist, rs_counts = ring_netlist(3, rs_total=2)
        return elaborate(netlist, rs_counts=rs_counts)

    def test_trace_instrument_disables_detection(self):
        model = self._ring_model()
        assert detection_plan(model, InstrumentSet.all(), True, None, None) is None
        result = make_kernel(model, "compiled").run(
            RunControls(horizon=5_000), InstrumentSet.all()
        )
        assert not result.extrapolated and result.period is None
        assert result.trace[next(iter(result.trace))].cycles == 5_000

    def test_on_cycle_observer_disables_detection(self):
        model = self._ring_model()
        seen = []
        result = make_kernel(model, "compiled").run(
            RunControls(horizon=200, on_cycle=lambda c, fired: seen.append(c)),
            InstrumentSet.none(),
        )
        assert not result.extrapolated and len(seen) == 200

    def test_zero_window_disables_detection(self):
        model = self._ring_model()
        result = make_kernel(model, "compiled").run(
            RunControls(horizon=5_000, steady_state_window=0),
            InstrumentSet.none(),
        )
        assert not result.extrapolated and result.period is None

    def test_mixed_complete_and_incomplete_is_unsupported(self):
        """A complete summary next to a plain one disables detection.

        The complete process' output values may depend on state its plain
        neighbour does not expose, so neither snapshot mode is sound.
        """
        from repro.engine.steady_state import certify_model

        class CompletePassthrough(PassthroughProcess):
            schedule_complete = True

        netlist = Netlist(
            [CompletePassthrough("a"), PassthroughProcess("b")],
            [
                Channel("ab", "a", "out", "b", "in", initial=0),
                Channel("ba", "b", "out", "a", "in", initial=1),
            ],
        )
        model = elaborate(netlist)
        assert certify_model(model) is None
        assert detection_plan(model, InstrumentSet.none(), True, None, None) is None

    def test_plain_netlists_classify_uncertified(self):
        from repro.engine.steady_state import certify_model

        netlist, rs_counts = ring_netlist(3, rs_total=2)
        model = elaborate(netlist, rs_counts=rs_counts)
        dynamic, certified = certify_model(model)
        assert not certified and dynamic == []

    def test_oracle_without_schedule_state_is_unsupported(self):
        process = FunctionProcess(
            "p", ("i",), ("o",),
            lambda state, inputs: (state, {"o": inputs["i"]}),
            oracle=lambda state: frozenset({"i"}),
        )
        netlist = Netlist(
            [process], [Channel("loop", "p", "o", "p", "i", initial=0)]
        )
        model = elaborate(netlist, relaxed=True)
        assert process.schedule_state() is None
        assert detection_plan(model, InstrumentSet.none(), True, None, None) is None


# ---------------------------------------------------------------------------
# The schedule_state protocol
# ---------------------------------------------------------------------------

class TestScheduleStateProtocol:
    def test_inert_processes_report_inert(self):
        assert PassthroughProcess("p").schedule_state() is SCHEDULE_INERT
        assert SinkProcess("s").schedule_state() is SCHEDULE_INERT
        assert CounterSource("c").schedule_state() is SCHEDULE_INERT

    def test_limited_counter_source_exposes_its_counter(self):
        source = CounterSource("c", limit=3)
        assert source.schedule_state() == 0
        source.fire({})
        assert source.schedule_state() == 1

    def test_function_process_without_oracle_is_inert(self):
        process = FunctionProcess(
            "p", ("i",), ("o",), lambda s, i: (s, {"o": i["i"]})
        )
        assert process.schedule_state() is SCHEDULE_INERT

    def test_done_overrider_without_summary_is_unsupported(self):
        class Custom(PassthroughProcess):
            def is_done(self):
                return False

        assert Custom("p").schedule_state() is None


# ---------------------------------------------------------------------------
# Horizon mode
# ---------------------------------------------------------------------------

class TestHorizon:
    @pytest.mark.parametrize("kernel", ("reference", "fast", "compiled"))
    def test_horizon_halts_exactly(self, kernel):
        netlist, rs_counts = ring_netlist(3, rs_total=1)
        result = run_lid(
            netlist, rs_counts=rs_counts, kernel=kernel, record_trace=False,
            horizon=777, steady_state=False,
        )
        assert result.cycles == 777 and result.halted

    @pytest.mark.parametrize("kernel", ("reference", "fast", "compiled"))
    def test_stop_condition_beats_horizon(self, kernel):
        netlist, rs_counts = ring_netlist(3, rs_total=1)
        result = run_lid(
            netlist, rs_counts=rs_counts, kernel=kernel, record_trace=False,
            horizon=100_000, target_firings={"stage0": 9},
        )
        assert result.halted and result.firings["stage0"] >= 9
        assert result.cycles < 100_000

    @pytest.mark.parametrize("kernel", ("reference", "fast", "compiled"))
    def test_horizon_beyond_max_cycles_times_out(self, kernel):
        netlist, rs_counts = ring_netlist(3, rs_total=1)
        with pytest.raises(SimulationError):
            run_lid(
                netlist, rs_counts=rs_counts, kernel=kernel, record_trace=False,
                horizon=1_000, max_cycles=500,
            )

    def test_invalid_horizon_rejected(self):
        netlist, rs_counts = ring_netlist(2, rs_total=1)
        with pytest.raises(SimulationError, match="horizon"):
            run_lid(
                netlist, rs_counts=rs_counts, record_trace=False, horizon=0
            )

    @pytest.mark.parametrize("kernel", DETECTING_KERNELS)
    def test_kernels_match_reference_on_horizon(self, kernel):
        netlist, rs_counts = ring_netlist(4, rs_total=2)
        reference = run_lid(
            netlist, rs_counts=rs_counts, kernel="reference",
            record_trace=False, horizon=3_000,
        )
        got = run_lid(
            netlist, rs_counts=rs_counts, kernel=kernel,
            record_trace=False, horizon=3_000,
        )
        _assert_matches_full(reference, got)


# ---------------------------------------------------------------------------
# REPRO_STEADY_STATE precedence (mirrors the REPRO_KERNEL pattern)
# ---------------------------------------------------------------------------

class TestSteadyStateEnv:
    def test_default_is_enabled(self, monkeypatch):
        monkeypatch.delenv(STEADY_STATE_ENV_VAR, raising=False)
        assert resolve_steady_state(None) is True

    def test_env_zero_disables(self, monkeypatch):
        monkeypatch.setenv(STEADY_STATE_ENV_VAR, "0")
        assert resolve_steady_state(None) is False

    @pytest.mark.parametrize("value", ["1", "on", "yes", "true"])
    def test_env_truthy_enables(self, monkeypatch, value):
        monkeypatch.setenv(STEADY_STATE_ENV_VAR, value)
        assert resolve_steady_state(None) is True

    def test_empty_env_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv(STEADY_STATE_ENV_VAR, "")
        assert resolve_steady_state(None) is True

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(STEADY_STATE_ENV_VAR, "0")
        assert resolve_steady_state(True) is True
        monkeypatch.setenv(STEADY_STATE_ENV_VAR, "1")
        assert resolve_steady_state(False) is False

    def test_env_disables_detection_end_to_end(self, monkeypatch):
        netlist, rs_counts = ring_netlist(3, rs_total=2)
        monkeypatch.setenv(STEADY_STATE_ENV_VAR, "0")
        off = run_lid(
            netlist, rs_counts=rs_counts, record_trace=False, horizon=5_000
        )
        assert not off.extrapolated and off.period is None
        monkeypatch.delenv(STEADY_STATE_ENV_VAR)
        on = run_lid(
            netlist, rs_counts=rs_counts, record_trace=False, horizon=5_000
        )
        assert on.extrapolated and on.cycles == off.cycles
        assert on.firings == off.firings


# ---------------------------------------------------------------------------
# Result plumbing (LidResult / BatchResult satellite)
# ---------------------------------------------------------------------------

class TestResultFields:
    def test_lidresult_defaults_are_backward_compatible(self):
        from repro.core.traces import SystemTrace

        result = LidResult(
            cycles=10,
            firings={"p": 5},
            trace=SystemTrace(()),
            halted=True,
            wrapper_kind="WP1",
            configuration_label="legacy",
            rs_counts={},
        )
        assert result.period is None
        assert result.warmup_cycles is None
        assert result.extrapolated is False

    def test_throughput_of_unknown_process_is_zero(self):
        """Regression: an unknown/filtered process name raised a KeyError."""
        from repro.core.traces import SystemTrace

        result = LidResult(
            cycles=10,
            firings={"p": 5},
            trace=SystemTrace(()),
            halted=True,
            wrapper_kind="WP1",
            configuration_label="legacy",
            rs_counts={},
        )
        assert result.throughput("p") == 0.5
        assert result.throughput("not-a-process") == 0.0
        assert result.throughput("filtered-out") == 0.0

    def test_batch_result_carries_period(self):
        netlist, rs_counts = ring_netlist(3, rs_total=2)
        runner = BatchRunner(netlist)
        [summary] = runner.run_many([rs_counts], horizon=20_000)
        assert summary.extrapolated and summary.period is not None
        assert summary.warmup_cycles is not None

    def test_warm_start_reuses_layout_periods(self):
        netlist, rs_counts = ring_netlist(4, rs_total=3)
        runner = BatchRunner(netlist)
        first, second, third = runner.run_many([rs_counts] * 3, horizon=50_000)
        assert first.cycles == second.cycles == third.cycles
        assert first.period == second.period == third.period
        key = next(iter(runner._period_memory._hits))
        window = runner._period_memory.window_for(key, 50_000, 16_384)
        assert window <= 2 * (first.warmup_cycles + first.period) + 16


# ---------------------------------------------------------------------------
# Extrapolation arithmetic
# ---------------------------------------------------------------------------

class TestPeriodsToSkip:
    def test_horizon_bound(self):
        assert periods_to_skip(100, 10, 1_000, 0, None, [], []) == 90

    def test_target_keeps_slowest_unmet(self):
        # Process 0 needs 95 more firings at 2/period -> 47 whole periods
        # still leave it unmet; the bound allows more.
        skip = periods_to_skip(
            100, 10, 10_000, 1, [(0, 100)], [5], [2]
        )
        assert skip == 47

    def test_target_with_met_target_ignored(self):
        skip = periods_to_skip(
            100, 10, 10_000, 1, [(0, 3), (1, 50)], [5, 10], [0, 4]
        )
        assert skip == (50 - 10 - 1) // 4

    def test_unreachable_target_skips_to_bound(self):
        skip = periods_to_skip(100, 10, 2_000, 1, [(0, 100)], [5], [0])
        assert skip == 190

    def test_never_negative(self):
        assert periods_to_skip(995, 10, 1_000, 0, None, [], []) == 0


# ---------------------------------------------------------------------------
# Codegen variants
# ---------------------------------------------------------------------------

class TestSteadyCodegen:
    def test_steady_and_horizon_are_distinct_cache_entries(self):
        netlist, rs_counts = ring_netlist(3, rs_total=2)
        model = elaborate(netlist, rs_counts=rs_counts)
        plain = compiled_run_fn(model, InstrumentSet.none())
        steady = compiled_run_fn(model, InstrumentSet.none(), steady=True)
        horizon = compiled_run_fn(model, InstrumentSet.none(), horizon=True)
        assert plain is not steady and plain is not horizon
        assert compiled_run_fn(model, InstrumentSet.none(), steady=True) is steady

    @pytest.mark.parametrize("relaxed", [False, True])
    @pytest.mark.parametrize(
        "instruments",
        [InstrumentSet.none(),
         InstrumentSet(trace=False, shell_stats=True, occupancy=True)],
        ids=["none", "stats+occ"],
    )
    def test_steady_source_compiles(self, relaxed, instruments):
        netlist, rs_counts = ring_netlist(3, rs_total=2)
        model = elaborate(netlist, rs_counts=rs_counts, relaxed=relaxed)
        source = generate_run_source(
            model, instruments, steady=True, horizon=True
        )
        assert "_ss_seen" in source and "_ss_skip" in source
        compile(source, "<test-steady>", "exec")

    def test_trace_mode_never_emits_detector(self):
        netlist, rs_counts = ring_netlist(3, rs_total=2)
        model = elaborate(netlist, rs_counts=rs_counts)
        source = generate_run_source(
            model, InstrumentSet.all(), steady=True
        )
        assert "_ss_seen" not in source


# ---------------------------------------------------------------------------
# Multi-netlist batch scheduling
# ---------------------------------------------------------------------------

def _sort_cpu():
    return build_pipelined_cpu(make_extraction_sort(length=4, seed=3).program)


def _matmul_cpu():
    from repro.cpu.workloads import make_matrix_multiply

    return build_pipelined_cpu(make_matrix_multiply(size=2, seed=3).program)


class TestMultiNetlistRunner:
    CONFIGS = staticmethod(lambda: [
        RSConfiguration.ideal(),
        RSConfiguration.uniform(1, exclude=("CU-IC",)),
        RSConfiguration.only("CU-RF", 2),
    ])

    def _multi(self):
        return MultiNetlistRunner.from_netlists(
            {
                "sort": _sort_cpu().netlist,
                "matmul": _matmul_cpu().netlist,
            }
        )

    def test_matches_single_layout_runs(self):
        multi = self._multi()
        configs = self.CONFIGS()
        items = [
            (name, config) for config in configs for name in ("sort", "matmul")
        ]
        mixed = multi.run_many(items, stop_process="CU")
        assert [r.label for r in mixed] == [c.label for c in configs for _ in "xy"]
        for name in ("sort", "matmul"):
            single = BatchRunner(multi.runner(name).netlist).run_many(
                configs, stop_process="CU"
            )
            mine = [r for (n, _), r in zip(items, mixed) if n == name]
            assert [r.cycles for r in single] == [r.cycles for r in mine]
            assert [r.firings for r in single] == [r.firings for r in mine]

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_one_pool_serves_every_layout(self, start_method):
        import multiprocessing

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} not available")
        multi = self._multi()
        items = [
            (name, config)
            for config in self.CONFIGS()
            for name in ("sort", "matmul")
        ]
        serial = multi.run_many(items, stop_process="CU")
        pooled = multi.run_many(
            items, workers=2, start_method=start_method, stop_process="CU"
        )
        assert [r.cycles for r in serial] == [r.cycles for r in pooled]
        assert [r.firings for r in serial] == [r.firings for r in pooled]

    def test_unknown_layout_rejected(self):
        multi = self._multi()
        with pytest.raises(SimulationError, match="unknown layout"):
            multi.run_many([("warp", RSConfiguration.ideal())], stop_process="CU")

    def test_per_layout_overrides(self):
        cpu = _sort_cpu()
        multi = MultiNetlistRunner.from_netlists(
            {"wp1": cpu.netlist, "wp2": cpu.netlist},
            per_layout={"wp2": {"relaxed": True}},
        )
        [wp1, wp2] = multi.run_many(
            [
                ("wp1", RSConfiguration.uniform(1, exclude=("CU-IC",))),
                ("wp2", RSConfiguration.uniform(1, exclude=("CU-IC",))),
            ],
            stop_process="CU",
        )
        assert wp1.wrapper_kind == "WP1" and wp2.wrapper_kind == "WP2"
        assert wp2.cycles < wp1.cycles  # the paper's WP2 gain

    def test_unpicklable_layouts_fall_back_to_fork(self):
        if not sys.platform.startswith(("linux", "darwin")):
            pytest.skip("fork inheritance requires a fork platform")
        ring_a, rs_a = ring_netlist(3, rs_total=2)  # closure processes
        ring_b, rs_b = ring_netlist(4, rs_total=1)
        multi = MultiNetlistRunner.from_netlists({"a": ring_a, "b": ring_b})
        items = [("a", rs_a), ("b", rs_b)] * 3
        serial = multi.run_many(
            items, target_firings={"stage0": 15}, max_cycles=1_000
        )
        pooled = multi.run_many(
            items, workers=2, target_firings={"stage0": 15}, max_cycles=1_000
        )
        assert [r.cycles for r in serial] == [r.cycles for r in pooled]

    def test_empty_runner_map_rejected(self):
        with pytest.raises(SimulationError):
            MultiNetlistRunner({})

    def test_mixed_workload_sweep_single_pool(self):
        from repro.cpu.workloads import make_matrix_multiply
        from repro.experiments import mixed_workload_sweep

        results = mixed_workload_sweep(
            workloads={
                "extraction_sort": make_extraction_sort(length=4, seed=3),
                "matrix_multiply": make_matrix_multiply(size=2, seed=3),
            },
            depths=(0, 1),
        )
        assert set(results) == {"extraction_sort", "matrix_multiply"}
        for sweep in results.values():
            assert sweep.points[0].wp1_throughput == pytest.approx(1.0)
            assert sweep.points[1].wp1_throughput < 1.0


class TestPeriodMemory:
    def test_hit_tightens_window(self):
        memory = PeriodMemory()
        memory.observe(("shape",), 10, 20, 1_000)
        assert memory.window_for(("shape",), 100_000, 16_384) == 2 * 30 + 16

    def test_layout_scale_informs_siblings(self):
        memory = PeriodMemory()
        memory.observe(("a",), 10, 20, 1_000)
        window = memory.window_for(("b",), 100_000, 16_384)
        assert 256 <= window <= 16_384

    def test_miss_disarms_equally_bounded_reruns(self):
        memory = PeriodMemory()
        memory.observe(("shape",), None, None, 5_000)
        assert memory.window_for(("shape",), 4_000, 16_384) == 0
        assert memory.window_for(("shape",), 50_000, 16_384) == 16_384

    def test_layout_scale_decays_toward_recent_observations(self):
        """Regression: one pathological warmup inflated siblings forever."""
        memory = PeriodMemory()
        memory.observe(("pathological",), 10_000, 2_000, 50_000)
        inflated = memory.window_for(("sibling",), 1_000_000, 1 << 20)
        assert inflated == 8 * 12_000
        for index in range(6):
            memory.observe((f"shape{index}",), 10, 20, 1_000)
        recovered = memory.window_for(("sibling",), 1_000_000, 1 << 20)
        assert recovered < inflated
        assert recovered <= 8 * 256  # converged near the recent scale

    def test_sibling_window_capped_at_run_bound(self):
        """Regression: sibling windows could exceed the run's cycle bound."""
        memory = PeriodMemory()
        memory.observe(("a",), 100, 500, 5_000)  # layout scale 600
        assert memory.window_for(("b",), 100_000, 16_384) == 8 * 600
        assert memory.window_for(("b",), 1_000, 16_384) == 1_000
