"""The compiled kernel: the production kernel, executing codegen run functions.

This kernel compiles a layout into a specialized run function (see
:mod:`repro.engine.codegen`) and executes it.  Relay-station depths and
queue/RS capacities are per-run data of that function, so one compile
serves every depth of a layout × wrapper × stop mode (plus one for the
all-chain-free binding); the functions are cached on the layout keyed by
:func:`~repro.engine.codegen.model_signature`, and same-shaped layouts share
code objects through the process-wide source cache.

Steady-state period detection (see :mod:`repro.engine.steady_state`) is
compiled straight into the generated loop whenever the run is eligible: the
per-cycle snapshot is one tuple of integers the loop already maintains, and
the analytic jump over the detected period's repetitions happens inside the
generated frame.

Semantics are pinned to the reference kernel by the property suites in
``tests/test_engine.py`` and ``tests/test_steady_state.py``: cycles, firings,
traces, stall statistics and occupancies are cycle-for-cycle identical
(extrapolated runs included).

One deliberate exception: the generic ``on_cycle`` observer (a per-cycle
Python callback, used by the :class:`~repro.core.simulator.LidSimulator`
facade) is served by the reference kernel — keeping the compiled hot loop
free of observer plumbing is the point of this kernel, and the two kernels
are equivalence-pinned, so the delegation is unobservable.
"""

from __future__ import annotations

from ..core.shell import ShellStats
from ..core.traces import SystemTrace
from .codegen import (
    cached_run_fn,
    compiled_run_fn,
    model_signature,
    relay_fields,
    relay_words,
    resolve_stop,
)
from .instrumentation import InstrumentSet, trace_from_lists
from .kernel import RunControls, SimKernel
from .result import LidResult
from .steady_state import detection_plan


class CompiledKernel(SimKernel):
    """Specialized-codegen kernel over the integer-indexed elaborated model."""

    name = "compiled"

    def run(self, controls: RunControls, instruments: InstrumentSet) -> LidResult:
        model = self.model
        controls.validate(model)
        if controls.on_cycle is not None:
            from .reference import ReferenceKernel

            return ReferenceKernel(model).run(controls, instruments)

        layout = model.layout
        proc_names = layout.proc_names
        n_procs = len(proc_names)
        fir = [0] * n_procs

        stop_mode, stop_arg = resolve_stop(controls, proc_names)

        plan = detection_plan(
            model, instruments, controls.steady_state,
            controls.steady_state_window, controls.on_cycle,
            asymptotic=controls.asymptotic(),
        )
        steady = plan is not None
        horizon = controls.horizon is not None
        # Code generation only runs when the layout has no function for this
        # signature yet; a hit never enters compiled_run_fn.
        run_fn = cached_run_fn(
            model, model_signature(model, instruments, stop_mode, steady, horizon)
        ) or compiled_run_fn(model, instruments, stop_mode, steady, horizon)
        caps, chains = relay_words(model)
        cycles, halted, chan_items, stats, occupancy, period, warmup, extrapolated = (
            run_fn(
                layout.processes,
                fir,
                model.configuration_label,
                controls.max_cycles,
                controls.deadlock_limit,
                controls.extra_cycles,
                stop_mode,
                stop_arg,
                controls.horizon if controls.horizon is not None else 0,
                plan.window if plan is not None else 0,
                caps,
                chains,
            )
        )

        firings = {proc_names[p]: fir[p] for p in range(n_procs)}
        if stats is not None:
            st_missing, st_blocked, st_done, st_disc, st_dp, st_mp = stats
            shell_stats = {
                proc_names[p]: ShellStats(
                    cycles=cycles,
                    firings=fir[p],
                    stalls_missing_input=st_missing[p],
                    stalls_output_blocked=st_blocked[p],
                    stalls_done=st_done[p],
                    discarded_tokens=st_disc[p],
                    discarded_by_port=dict(st_dp[p]),
                    missing_by_port=dict(st_mp[p]),
                )
                for p in range(n_procs)
            }
        else:
            shell_stats = {}
        if chan_items is not None:
            trace = trace_from_lists(layout.chan_names, chan_items)
        else:
            trace = SystemTrace(layout.chan_names)
        return LidResult(
            cycles=cycles,
            firings=firings,
            trace=trace,
            halted=halted,
            wrapper_kind=model.wrapper_kind,
            configuration_label=model.configuration_label,
            rs_counts=dict(model.rs_counts),
            shell_stats=shell_stats,
            max_queue_occupancy=(
                _max_occupancy(model, *occupancy) if occupancy is not None else {}
            ),
            period=period or None,
            warmup_cycles=warmup if period else None,
            extrapolated=extrapolated,
        )


def _max_occupancy(model, fifo_max, chain_max) -> dict:
    """Per-element maxima: FIFO counters plus the fields of each chain's word."""
    maxima = list(fifo_max)
    width, value_bits = relay_fields(model.rs_capacity)
    mask = (1 << value_bits) - 1
    maxima += [0] * (len(model.queue_caps) - len(maxima))
    for cid, word in chain_max.items():
        for index, qid in enumerate(model.chan_chain[cid][:-1]):
            maxima[qid] = (word >> (index * width)) & mask
    return dict(zip(model.queue_names, maxima))


class FastKernel(CompiledKernel):
    """The compiled kernel under its former name ``"fast"``.

    ``REPRO_KERNEL=fast`` and ``kernel="fast"`` callers keep working; the
    interpreter that used to carry this name is gone (DESIGN.md §2).  ``run``
    is re-bound here so tools that wrap ``FastKernel.run`` in the class
    dictionary still find it.
    """

    name = "fast"
    run = CompiledKernel.run
