"""Instrumentation passes: opt-in observation of a simulation run.

Traces, per-shell stall statistics and maximum queue occupancies used to be
always-on fields of the simulator; they are now composable passes selected
per run, so a caller that only needs cycle counts (the optimiser's simulated
objectives, batch sweeps) pays zero instrumentation cost.

:class:`InstrumentSet` groups the passes requested for one run as three
flags.  Kernels inline the hot-path collection for the built-in passes
(appending to a trace list, bumping counters) and expose the generic
per-cycle ``on_cycle`` hook (see
:class:`~repro.engine.kernel.RunControls`) for everything else — a
Python-level callback per queue per cycle would cost more than the
quantities being measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core.traces import SystemTrace


@dataclass(frozen=True)
class InstrumentSet:
    """The passes enabled for one run.

    The default (:meth:`all`) matches the historical always-on behaviour of
    :class:`repro.core.simulator.LidSimulator`; :meth:`none` is the bare
    objective-evaluation mode used by the batch runner and the optimiser.
    """

    trace: bool = True
    shell_stats: bool = True
    occupancy: bool = True

    @classmethod
    def all(cls) -> "InstrumentSet":
        return cls(trace=True, shell_stats=True, occupancy=True)

    @classmethod
    def none(cls) -> "InstrumentSet":
        return cls(trace=False, shell_stats=False, occupancy=False)

    def with_trace(self, trace: bool) -> "InstrumentSet":
        return InstrumentSet(
            trace=trace, shell_stats=self.shell_stats, occupancy=self.occupancy
        )


def trace_from_lists(channels: List[str], items: List[List[object]]) -> SystemTrace:
    """Assemble a :class:`SystemTrace` from per-channel item lists.

    Used by the compiled kernel, which accumulates plain lists on the hot path
    and only materialises trace objects once at the end of the run.
    """
    trace = SystemTrace(channels)
    for name, recorded in zip(channels, items):
        trace[name].items = recorded
    return trace
