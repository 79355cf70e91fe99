"""Steady-state period detection and analytic extrapolation.

A latency-insensitive system is a marked graph: whether a shell fires depends
only on token *presence* (queue occupancies, back-pressure) and on the
process-level control hooks (``is_done`` / ``required_ports``), never on token
values.  Its control schedule therefore evolves over a finite state space and
must eventually become periodic; once one period has been observed, the
remaining cycles of a long-horizon run contribute nothing new — cycle counts,
firing totals, stall statistics and occupancy maxima all extrapolate
analytically (see DESIGN.md §4 for the full argument).

This module holds everything the kernels share:

* the canonical snapshot *plan* — which queues, tag offsets, done flags and
  per-process :meth:`~repro.core.process.Process.schedule_state` samples make
  up the per-cycle snapshot key, and when detection is sound at all
  (:func:`detection_plan`), including the **certified** value-inclusive mode
  for netlists of :attr:`~repro.core.process.Process.schedule_complete`
  processes whose control is data-dependent (:func:`certify_model`,
  DESIGN.md §5);
* the ``REPRO_STEADY_STATE`` environment override and its precedence rules
  (:func:`resolve_steady_state`, mirroring ``REPRO_KERNEL``);
* the extrapolation arithmetic — how many whole periods a run may skip
  without overshooting its stop condition (:func:`periods_to_skip`);
* :class:`PeriodMemory`, the warm-start store the batch runner uses to size
  detection windows from periods already observed on the same layout.

The hot-path work (building the snapshot key each cycle, the recurrence
dictionary) is compiled into the generated run loop by
:mod:`repro.engine.codegen`, so detection costs stay within a few percent of
the uninstrumented cycle loop.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.process import SCHEDULE_INERT, overrides_hook
from .elaboration import ElaboratedModel
from .instrumentation import InstrumentSet

#: Environment variable consulted when ``RunControls.steady_state`` is None.
#: ``REPRO_STEADY_STATE=0`` disables detection globally (the CLI flag
#: ``--no-steady-state`` sets it); any other non-empty value enables it.
STEADY_STATE_ENV_VAR = "REPRO_STEADY_STATE"

#: Steady-state detection is on by default wherever it is sound.
DEFAULT_STEADY_STATE = True

#: Default number of cycles the detector searches for a recurrence before
#: disarming (bounds the snapshot dictionary; the batch runner tightens it
#: adaptively through :class:`PeriodMemory`).
DEFAULT_DETECTION_WINDOW = 16_384

_FALSY = frozenset({"0", "false", "no", "off"})


def resolve_steady_state(flag: Optional[bool]) -> bool:
    """Resolve the steady-state switch.

    Precedence mirrors ``REPRO_KERNEL``: the explicit *flag* argument, then
    the ``REPRO_STEADY_STATE`` environment variable (ignored when empty),
    then :data:`DEFAULT_STEADY_STATE`.
    """
    if flag is not None:
        return bool(flag)
    env = os.environ.get(STEADY_STATE_ENV_VAR, "").strip()
    if env:
        return env.lower() not in _FALSY
    return DEFAULT_STEADY_STATE


@dataclass
class DetectionPlan:
    """What one run's canonical snapshot consists of.

    The snapshot taken at the top of every cycle is the tuple of

    * the occupancy of every storage element (shell FIFOs and relay
      stations; the compiled kernel keys one packed word per relay chain,
      which maps one-to-one onto its stations' occupancies) — all tokens
      live in queues at that point, so the occupancy vector *is* the
      in-flight state;
    * under WP2, one relative tag offset ``firings(src) - firings(dest)`` per
      channel: FIFO tags are gapless, so together with the occupancies this
      pins every queued token's tag relative to its consumer (what the
      stale-token discard of an oracle shell reads);
    * the ``is_done()`` flag and the :meth:`~repro.core.process.Process.
      schedule_state` sample of every process whose control hooks can change.

    Token values are absent from the *plain* plan: they never gate a firing,
    and the ``schedule_state`` contract guarantees the sampled control state
    evolves independently of them.  Under the **certified** plan (every
    process declares :attr:`~repro.core.process.Process.schedule_complete`,
    so control *is* data-dependent) the snapshot additionally keys the queued
    token values of every storage element, and a candidate period is only
    trusted after :attr:`verify_fns` confirms the exact state recurred at
    both ends of the measured period (see DESIGN.md §5).
    """

    #: ``(proc_index, bound schedule_state)`` for every dynamic process.
    sig_fns: List[Tuple[int, Callable]]
    #: Process indices whose ``is_done`` flag belongs in the snapshot.
    done_procs: List[int]
    #: Per-channel ``(src_proc, dest_proc)`` index pairs (WP2 only, deduped).
    offset_pairs: List[Tuple[int, int]]
    #: Cycles to search for a recurrence before disarming.
    window: int
    #: Certified (value-inclusive) mode: queued token values join the key and
    #: every candidate period is deep-verified before extrapolating.
    certified: bool = False
    #: ``(proc_index, bound schedule_verify_state)`` for the per-candidate
    #: deep verification (certified mode only).
    verify_fns: List[Tuple[int, Callable]] = field(default_factory=list)


def certify_model(model: ElaboratedModel) -> Optional[Tuple[List[int], bool]]:
    """Classify one elaborated netlist for steady-state detection.

    Returns ``(dynamic process indices, certified)`` or ``None`` when
    detection must stay off.  A process is *dynamic* when its
    ``schedule_state()`` returns a real value (re-sampled every cycle),
    *inert* when it returns :data:`~repro.core.process.SCHEDULE_INERT`, and
    *unsupported* when it returns ``None``.  The certification decision:

    * **plain** (``certified=False``): every process honours the
      value-independent base contract (no ``schedule_complete`` declaration
      anywhere) — token values cannot gate the schedule and stay out of the
      snapshot;
    * **certified** (``certified=True``): every process declares
      :attr:`~repro.core.process.Process.schedule_complete`, i.e. each
      summary captures the complete behavioural state.  Then full-state
      recurrence — summaries plus the queued token values the plan also
      keys — implies true periodicity even though control is data-dependent;
    * ``None``: some process returns ``None``, or complete and
      value-independent summaries are mixed (a complete process' output
      values may depend on state an incomplete neighbour does not expose, so
      the combined snapshot would be unsound).  Full simulation is always
      sound, so ``None`` simply disables detection.
    """
    dynamic: List[int] = []
    any_complete = False
    all_complete = True
    for index, process in enumerate(model.layout.processes):
        state = process.schedule_state()
        if state is None:
            return None
        if process.schedule_complete:
            any_complete = True
        else:
            all_complete = False
        if state is not SCHEDULE_INERT:
            dynamic.append(index)
    if any_complete and not all_complete:
        return None
    return dynamic, any_complete


def dynamic_signature_indices(model: ElaboratedModel) -> Optional[List[int]]:
    """Back-compat view of :func:`certify_model`: the dynamic indices only."""
    certification = certify_model(model)
    return None if certification is None else certification[0]


def channel_offset_pairs(model: ElaboratedModel) -> List[Tuple[int, int]]:
    """Deduplicated ``(src_proc, dest_proc)`` pairs, one per WP2-relevant channel."""
    layout = model.layout
    proc_index = {name: i for i, name in enumerate(layout.proc_names)}
    pairs = {
        (proc_index[chan.source], proc_index[chan.dest])
        for chan in model.netlist.channels.values()
    }
    return sorted(pair for pair in pairs if pair[0] != pair[1])


def detection_plan(
    model: ElaboratedModel,
    instruments: InstrumentSet,
    steady_state: Optional[bool] = None,
    window: Optional[int] = None,
    on_cycle: Optional[object] = None,
    asymptotic: bool = True,
) -> Optional[DetectionPlan]:
    """The snapshot plan for one run, or None when detection must stay off.

    Detection is disabled when the run is switched off (argument / env /
    default), when the trace instrument records per-cycle channel emissions
    (an extrapolated run cannot reproduce the skipped cycles' values — see
    DESIGN.md §4), when a per-cycle ``on_cycle`` observer is installed, or
    when any process cannot summarise its schedule-relevant state.

    *asymptotic* tells the planner whether the run is bounded by a horizon
    or firing targets (kernels pass ``RunControls.asymptotic()``).  Certified
    plans only arm on such runs: a complete-state recurrence can never
    precede a done-based stop (it would prove the program loops forever), so
    on terminating programs the value-inclusive search would be pure
    per-cycle overhead.  Plain plans are unaffected — their snapshots are a
    few integers and done-mode recurrences still prove timeouts early.
    """
    if not resolve_steady_state(steady_state):
        return None
    if instruments.trace or on_cycle is not None:
        return None
    effective_window = DEFAULT_DETECTION_WINDOW if window is None else window
    if effective_window <= 0:
        return None
    certification = certify_model(model)
    if certification is None:
        return None
    dynamic, certified = certification
    if certified and not asymptotic:
        return None
    processes = model.layout.processes
    done_procs = [p for p in dynamic if overrides_hook(processes[p], "is_done")]
    return DetectionPlan(
        sig_fns=[(p, processes[p].schedule_state) for p in dynamic],
        done_procs=done_procs,
        offset_pairs=channel_offset_pairs(model) if model.relaxed else [],
        window=effective_window,
        certified=certified,
        verify_fns=(
            [(p, processes[p].schedule_verify_state) for p in dynamic]
            if certified
            else []
        ),
    )


def periods_to_skip(
    cycles: int,
    period: int,
    bound: int,
    stop_mode: int,
    stop_arg,
    fir: Sequence[int],
    deltas: Sequence[int],
) -> int:
    """How many whole periods the run may skip without overshooting.

    Called at a period boundary (``cycles`` is a snapshot-recurrence phase
    point) with the per-period firing *deltas* measured over one concrete
    period.  The skip must leave the true stop cycle outside the skipped
    region, so the resumed concrete simulation finds it exactly:

    * ``bound`` (the horizon or ``max_cycles`` loop bound) is never crossed;
    * under firing targets (``stop_mode == 1``), the run stops only once
      *every* target is met, so it is safe to skip while at least one target
      remains strictly unmet — the binding target is the slowest one.  A
      target whose process gains no firings per period can never be met and
      the run provably times out: skip straight to the bound;
    * under done-based stop modes, a recurrence proves no ``is_done`` flag
      will ever flip again (a pending flip would be counting down inside some
      process' sampled ``schedule_state`` and the snapshot could not have
      recurred), so the run times out at the bound as well.
    """
    j = (bound - cycles) // period
    if j <= 0:
        return 0
    if stop_mode == 1:  # codegen.STOP_TARGET (kept literal: no import cycle)
        slowest = 0
        for index, count in stop_arg:
            deficit = count - fir[index]
            if deficit > 0:
                delta = deltas[index]
                if delta <= 0:
                    return j  # unreachable target: run times out at the bound
                needed = (deficit - 1) // delta
                if needed > slowest:
                    slowest = needed
        if slowest < j:
            j = slowest
    return j


def scale_counts(target: Dict, base: Dict, factor: int) -> None:
    """Add ``factor`` × the per-period delta of every counter in *target*.

    ``target`` holds cumulative per-port counters at the end of the measured
    period, ``base`` a copy from its start; the difference is one period's
    contribution, which the skipped periods repeat verbatim.
    """
    for key, value in target.items():
        delta = value - base.get(key, 0)
        if delta:
            target[key] = value + factor * delta


def stats_jump(
    skip: int,
    base: Tuple,
    st_missing: List[int],
    st_blocked: List[int],
    st_done: List[int],
    st_disc: List[int],
    st_dp: List[Dict],
    st_mp: List[Dict],
) -> None:
    """Advance shell-stat counters by *skip* periods' worth of deltas.

    *base* holds copies of all six counter structures taken at the start of
    the measured period; the compiled kernel's generated jump block calls
    this once (cold path).
    """
    b_missing, b_blocked, b_done, b_disc, b_dp, b_mp = base
    for p in range(len(st_missing)):
        st_missing[p] += skip * (st_missing[p] - b_missing[p])
        st_blocked[p] += skip * (st_blocked[p] - b_blocked[p])
        st_done[p] += skip * (st_done[p] - b_done[p])
        st_disc[p] += skip * (st_disc[p] - b_disc[p])
        scale_counts(st_dp[p], b_dp[p], skip)
        scale_counts(st_mp[p], b_mp[p], skip)


class PeriodMemory:
    """Warm-start store: periods already detected on one netlist layout.

    Keyed by the *binding shape* (relay-chain shape, element capacities,
    wrapper flavour): re-running the same shape detects the same period, and
    sibling shapes of one layout settle on similar scales.  The batch runner
    uses it to

    * tighten the detection window to a small multiple of the period already
      seen for the exact shape (repeat evaluations stop paying for a large
      snapshot dictionary),
    * derive a layout-wide window for shapes not seen yet from the largest
      (warmup + period) observed so far, and
    * disarm detection outright for shapes that provably do not recur within
      the cycles a previous equally-bounded run already searched.
    """

    def __init__(self) -> None:
        self._hits: Dict[Tuple, int] = {}
        self._misses: Dict[Tuple, int] = {}
        self._layout_scale = 0

    @staticmethod
    def key_for(model: ElaboratedModel) -> Tuple:
        return (
            tuple(tuple(chain) for chain in model.chan_chain),
            tuple(model.queue_caps),
            model.relaxed,
        )

    def observe(
        self,
        key: Tuple,
        warmup: Optional[int],
        period: Optional[int],
        cycles_searched: int,
    ) -> None:
        if period:
            scale = (warmup or 0) + period
            self._hits[key] = scale
            self._misses.pop(key, None)
            if scale > self._layout_scale:
                self._layout_scale = scale
            else:
                # Decay toward recent observations: without this, one
                # pathological warmup seen early in a batch would inflate the
                # sibling windows of every later shape permanently.
                self._layout_scale -= (self._layout_scale - scale) // 2
        elif key not in self._hits:
            previous = self._misses.get(key, 0)
            if cycles_searched > previous:
                self._misses[key] = cycles_searched

    def window_for(self, key: Tuple, bound: int, default: int) -> int:
        """The detection window to use for *key* (0 disarms detection)."""
        scale = self._hits.get(key)
        if scale is not None:
            return min(default, 2 * scale + 16)
        searched = self._misses.get(key)
        if searched is not None and bound <= searched:
            return 0  # provably non-recurring within this run's bound
        if self._layout_scale:
            # Searching past the run's own cycle bound buys nothing: cap the
            # sibling window there as well as at the caller's default.
            return min(default, bound, max(256, 8 * self._layout_scale))
        return default
