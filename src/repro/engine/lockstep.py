"""The lockstep kernel: one NumPy step advances N configurations at once.

The scalar kernels pay one Python-interpreted (or codegen-specialized) cycle
loop *per configuration*; a relay-station sweep evaluates hundreds of
configurations of one layout, so the interpreter overhead multiplies across
the sweep dimension.  This kernel turns that dimension into the vector axis:
the queue occupancies, firing counters, stall statistics, drain counters and
done flags of N same-layout configurations are stored as structure-of-arrays
(configuration axis = axis 0) and every cycle advances all N simulations
with masked vector operations.  Lanes that hit their stop condition (or
deadlock) freeze via an active mask while the rest keep stepping.

Why pure occupancy counts suffice
---------------------------------
Token *values* never gate a firing (DESIGN.md §2): a shell fires when every
input FIFO holds the current-tag token and no output channel's entry element
asserts back-pressure.  For the netlists this kernel accepts (see
:func:`lockstep_reason`), every storage element receives tokens in strictly
increasing tag order and its consumer pops them in the same order, so *the
head token of a non-empty FIFO always carries exactly the consumer's current
tag*: readiness degenerates to ``occupancy > 0``, the WP2 stale-discard scan
never fires, and WP2 without oracles behaves exactly like WP1.  The whole
simulation state therefore fits in one ``(N, Q)`` occupancy matrix plus one
``(N, P)`` firing matrix — no tokens are materialised at all.

Consequences, pinned by the equivalence suite in ``tests/test_lockstep.py``:

* per-lane results (cycles, firings, halted, stall statistics, occupancy
  maxima) are bit-identical to the scalar
  :class:`~repro.engine.compiled.CompiledKernel`;
* token values are never computed, so side effects inside process objects
  (e.g. values a sink records) do not occur — the same value/side-effect
  boundary an ``extrapolated`` result already has (see
  :class:`~repro.engine.result.LidResult`);
* steady-state period detection is **disabled** on the lockstep path for
  this iteration: per-lane snapshot hashing would serialise the vector loop,
  and extrapolated counts are identical to full simulation anyway, so
  results simply carry ``period=None`` / ``extrapolated=False`` with the
  same counts (DESIGN.md §7 records per-lane hashed detection as follow-up).

Netlists the vector encoding cannot express — WP2 oracles whose required
set may differ from "all ports", or processes whose done condition is not a
pure function of their firing count (see
:meth:`~repro.core.process.Process.done_threshold`) — and runs that need
per-cycle callbacks or traces fall back to the scalar production kernel,
:class:`~repro.engine.compiled.CompiledKernel`, automatically.

NumPy is an optional dependency (the ``repro[fast]`` extra): this module
imports with NumPy absent, :func:`lockstep_reason` then reports every run
ineligible, and only an *explicit* lockstep request raises a clear
:class:`~repro.core.exceptions.SimulationError`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Union

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised via monkeypatching
    np = None  # type: ignore[assignment]

from ..core.exceptions import DeadlockError, SimulationError
from ..core.process import SCHEDULE_INERT, overrides_hook
from ..core.shell import ShellStats
from ..core.traces import SystemTrace
from .codegen import STOP_ANY_DONE, STOP_PROCESS, STOP_TARGET, resolve_stop
from .elaboration import ElaboratedModel
from .instrumentation import InstrumentSet
from .kernel import RunControls, SimKernel
from .result import LidResult

#: Sentinel done threshold for processes that never report done: any value
#: comfortably above every reachable firing count but still well inside
#: int64, so ``fir >= thr`` comparisons never overflow.
NEVER_DONE = 1 << 62


def require_numpy() -> None:
    """Raise a clear error when NumPy is absent (instead of an ImportError)."""
    if np is None:
        raise SimulationError(
            "the lockstep kernel requires NumPy, which is not installed; "
            "install the optional dependency with: pip install repro[fast]"
        )


def lockstep_reason(
    model: ElaboratedModel,
    controls: RunControls,
    instruments: InstrumentSet,
) -> Optional[str]:
    """Why this run cannot use the lockstep path (``None`` when it can).

    The classification mirrors :func:`repro.engine.steady_state.certify_model`
    in spirit: a capability check over the *processes* of the layout plus the
    run's observation requirements.  Eligibility requires:

    * NumPy installed (see :func:`require_numpy`);
    * no trace instrument and no ``on_cycle`` observer (both need per-cycle
      Python-level values/callbacks);
    * every process' done condition expressible as a firing-count threshold
      (:meth:`~repro.core.process.Process.done_threshold` not ``None``);
    * under the relaxed (WP2) wrapper, every oracle constantly answering
      ``None`` ("all ports required"), which reduces WP2 to WP1.  This is
      established through the :meth:`~repro.core.process.Process.schedule_state`
      contract: :data:`~repro.core.process.SCHEDULE_INERT` promises the
      oracle's answer is constant for the whole run, so one probe decides.
    """
    if np is None:
        return "NumPy is not installed (pip install repro[fast])"
    if instruments.trace:
        return "the trace instrument records token values"
    if controls.on_cycle is not None:
        return "the on_cycle observer needs a per-cycle Python callback"
    for process in model.layout.processes:
        if process.done_threshold() is None:
            return (
                f"process {process.name!r} has a data-dependent done condition"
            )
        if model.relaxed and overrides_hook(process, "required_ports"):
            # Probe the oracle once; sound only when the process promises a
            # constant answer (SCHEDULE_INERT).  reset() first so the probe
            # sees the initial state every run starts from.
            if process.schedule_state() is not SCHEDULE_INERT:
                return (
                    f"process {process.name!r} exposes a state-dependent "
                    "WP2 oracle"
                )
            process.reset()
            if process.required_ports() is not None:
                return (
                    f"process {process.name!r} has an oracle requiring a "
                    "strict port subset"
                )
    return None


def run_lockstep_batch(
    models: Sequence[ElaboratedModel],
    controls: RunControls,
    instruments: InstrumentSet,
) -> List[Union[LidResult, Exception]]:
    """Advance every model (lane) in lockstep; one result or error per lane.

    All models must share one :class:`~repro.engine.elaboration.NetlistLayout`
    and wrapper flavour; per-lane relay-station counts and element capacities
    may differ freely.  Per-lane failures (deadlock, timeout) are *returned*
    as exception objects in the lane's slot — a failing lane must not destroy
    its siblings' results; callers decide whether to raise.  Eligibility
    (:func:`lockstep_reason`) is the caller's responsibility.
    """
    require_numpy()
    if not models:
        return []
    layout = models[0].layout
    relaxed = models[0].relaxed
    for model in models[1:]:
        if model.layout is not layout:
            raise SimulationError(
                "run_lockstep_batch needs models sharing one NetlistLayout"
            )
        if model.relaxed is not relaxed:
            raise SimulationError(
                "run_lockstep_batch needs models sharing one wrapper flavour"
            )
    for model in models:
        controls.validate(model)

    n_lanes = len(models)
    procs = layout.processes
    proc_names = layout.proc_names
    n_procs = len(procs)
    chan_names = layout.chan_names
    n_chans = len(chan_names)
    n_shell = layout.n_shell_queues
    track_occ = instruments.occupancy
    track_stats = instruments.shell_stats

    for process in procs:
        process.reset()

    # -- global storage-element space ---------------------------------------
    # The element index space is chosen so the hottest per-cycle gathers and
    # scatters degenerate to contiguous views:
    #
    # * shell FIFO qids follow *consumer order* — qid k is the FIFO feeding
    #   the k-th entry of ``layout.flat_inputs()``.  Netlist validation makes
    #   that a bijection (each input port has exactly one driver channel, each
    #   channel one dest port), so the input-readiness gather is the plain
    #   slice ``latched[:, :n_shell]`` and token consumption is one in-place
    #   subtraction on ``occ[:, :n_shell]``.
    # * relay stations are re-indexed *destination-aligned*: channel c gets
    #   max-over-lanes(R_l) padded slots, slot (c, j) holding the token j
    #   hops from the destination FIFO (j = 1..Rmax), ids handed out in hop
    #   order (j descending) so the hop sources are exactly the slice
    #   ``[:, n_shell:]``.  A lane with R_l relay stations uses distances
    #   1..R_l; its phantom slots (j > R_l) stay empty forever, so every hop
    #   guard on them is automatically false and no per-lane hop list is
    #   needed.
    flat_in = layout.flat_inputs()
    assert len(flat_in) == n_shell, "channels <-> input ports is a bijection"
    in_proc = np.array([p for p, _q, _port in flat_in], dtype=np.int64)
    in_port_names = [port for _p, _q, port in flat_in]
    # qmap: layout shell qid -> consumer-ordered qid used by this kernel.
    qmap = [0] * n_shell
    for k, (_p, q, _port) in enumerate(flat_in):
        qmap[q] = k
    dest_qid = [qmap[layout.chan_dest_qid[cid]] for cid in range(n_chans)]

    rs_max = [0] * n_chans
    for model in models:
        for cid, cname in enumerate(chan_names):
            count = model.rs_counts[cname]
            if count > rs_max[cid]:
                rs_max[cid] = count
    # Relay-station slot ids in hop order: (c, Rmax_c), (c, Rmax_c - 1), ...
    rs_slot: Dict[tuple, int] = {}
    n_queues = n_shell
    hop_dst_list: List[int] = []
    for cid in range(n_chans):
        for distance in range(rs_max[cid], 0, -1):
            rs_slot[(cid, distance)] = n_queues
            n_queues += 1
    for cid in range(n_chans):
        for distance in range(rs_max[cid], 0, -1):
            hop_dst_list.append(
                dest_qid[cid] if distance == 1 else rs_slot[(cid, distance - 1)]
            )
    n_hops = n_queues - n_shell

    def slot(cid: int, distance: int) -> int:
        """Global qid of the element *distance* hops before channel cid's dest."""
        if distance == 0:
            return dest_qid[cid]
        return rs_slot[(cid, distance)]

    # -- per-lane static state ----------------------------------------------
    occ = np.zeros((n_lanes, n_queues), dtype=np.int64)
    caps = np.empty((n_lanes, n_queues), dtype=np.int64)
    # ent[l, c]: the element a token produced on channel c enters in lane l
    # (the farthest relay station, or the dest FIFO when the lane has none).
    ent = np.empty((n_lanes, n_chans), dtype=np.int64)
    rs_counts_per_lane: List[List[int]] = []
    shell_caps_order = [layout_q for _p, layout_q, _port in flat_in]
    for lane, model in enumerate(models):
        caps[lane, :n_shell] = [model.queue_caps[q] for q in shell_caps_order]
        caps[lane, n_shell:] = model.rs_capacity
        lane_counts = [model.rs_counts[cname] for cname in chan_names]
        rs_counts_per_lane.append(lane_counts)
        for cid in range(n_chans):
            ent[lane, cid] = slot(cid, lane_counts[cid])
    for cid in range(n_chans):
        # Initial channel values live in the destination FIFOs with tag 0.
        occ[:, dest_qid[cid]] += 1

    # -- static index vectors ------------------------------------------------
    # reduceat segments: only processes with >= 1 input (zero-length segments
    # are unsupported); input-less processes are never missing.
    in_segmented = [p for p in range(n_procs) if layout.in_ports[p]]
    in_starts = np.cumsum(
        [0] + [len(layout.in_ports[p]) for p in in_segmented[:-1]]
    ).astype(np.int64) if in_segmented else np.zeros(0, dtype=np.int64)
    in_seg_procs = np.array(in_segmented, dtype=np.int64)

    flat_out = layout.flat_outputs()
    out_proc = np.array([p for p, _c in flat_out], dtype=np.int64)
    out_cid = np.array([c for _p, c in flat_out], dtype=np.int64)
    out_segmented = [p for p in range(n_procs) if layout.out_chans[p]]
    out_starts = np.cumsum(
        [0] + [len(layout.out_chans[p]) for p in out_segmented[:-1]]
    ).astype(np.int64) if out_segmented else np.zeros(0, dtype=np.int64)
    out_seg_procs = np.array(out_segmented, dtype=np.int64)

    # Launch targets: per (lane, produced channel) entry elements, as flat
    # indices into occ.ravel().  All indices within one lane are distinct
    # (each channel has one source port and one entry element), so in-place
    # fancy addition is exact.
    ent_q = ent[:, out_cid]                                  # (N, O)
    lane_off = (np.arange(n_lanes, dtype=np.int64) * n_queues)[:, None]
    ent_flat = lane_off + ent_q                              # (N, O)
    caps_at_ent = np.take_along_axis(caps, ent_q, axis=1)    # (N, O)

    # Hops: slot (c, j) -> slot (c, j-1) for every channel and distance.
    # Each element has at most one incoming and one outgoing hop, decisions
    # read only the latched snapshot, so the commits are order-independent.
    # Source slots are the contiguous slice [n_shell:] by construction; only
    # the destination side needs an index vector.
    hop_dst = np.array(hop_dst_list, dtype=np.int64)
    hop_caps = np.take_along_axis(caps, hop_dst[None, :], axis=1) if n_hops \
        else np.zeros((n_lanes, 0), dtype=np.int64)

    # Done thresholds: is_done() == (firings >= thr), vectorised per process.
    thr = np.empty(n_procs, dtype=np.int64)
    for p, process in enumerate(procs):
        threshold = process.done_threshold()
        assert threshold is not None, "caller must check lockstep_reason()"
        thr[p] = NEVER_DONE if threshold == math.inf else int(threshold)

    # -- run state ------------------------------------------------------------
    fir = np.zeros((n_lanes, n_procs), dtype=np.int64)
    active = np.ones(n_lanes, dtype=bool)
    halted_arr = np.zeros(n_lanes, dtype=bool)
    idle_streak = np.zeros(n_lanes, dtype=np.int64)
    # drain[l] == -1: stop condition not met yet; >= 0: extra cycles left.
    drain = np.full(n_lanes, -1, dtype=np.int64)
    final_cycles = np.zeros(n_lanes, dtype=np.int64)
    errors: Dict[int, Exception] = {}
    maxocc = occ.copy() if track_occ else None
    if track_stats:
        st_missing = np.zeros((n_lanes, n_procs), dtype=np.int64)
        st_blocked = np.zeros((n_lanes, n_procs), dtype=np.int64)
        st_done = np.zeros((n_lanes, n_procs), dtype=np.int64)
        st_missing_pe = np.zeros((n_lanes, len(flat_in)), dtype=np.int64)

    stop_mode, stop_arg = resolve_stop(controls, proc_names)
    if stop_mode == STOP_TARGET:
        t_idx = np.array([p for p, _count in stop_arg], dtype=np.int64)
        t_cnt = np.array([count for _p, count in stop_arg], dtype=np.int64)
    # With every threshold at NEVER_DONE, STOP_PROCESS / STOP_ANY_DONE can
    # never trigger (horizon-bounded runs): skip the whole stop check.
    stop_possible = stop_mode == STOP_TARGET or bool(
        (thr < NEVER_DONE).any()
        if stop_mode == STOP_ANY_DONE
        else thr[stop_arg] < NEVER_DONE
    )

    # -- per-cycle scratch (allocated once; the loop only writes in place) ----
    # Flat index sets into the raveled (N, Q) / (N, P) matrices.  Within one
    # lane every index set is duplicate-free (a storage element has exactly
    # one consumer port, one entry channel and at most one hop each way), so
    # plain fancy-index updates are exact.  The input and hop-source sides
    # need no index at all: by the qid construction above they are the
    # contiguous slices [:n_shell] and [n_shell:].
    lane_off_p = (np.arange(n_lanes, dtype=np.int64) * n_procs)[:, None]
    in_take = lane_off_p + in_proc[None, :]                  # (N, I) into fire
    out_take = lane_off_p + out_proc[None, :]                # (N, O) into fire
    hop_flat_dst = lane_off + hop_dst[None, :]               # (N, H)
    thr_row = thr[None, :]
    active_col = active[:, None]  # view: all `active` updates are in place
    n_inputs = n_shell
    n_outputs = len(flat_out)
    # Shortcut: when every process has inputs (outputs), the reduceat result
    # already spans all process columns and lands directly in the target.
    in_full = len(in_seg_procs) == n_procs
    out_full = len(out_seg_procs) == n_procs
    # With every threshold at NEVER_DONE, done flags can never rise: skip
    # their computation on the hot path (the stats path still wants them so
    # stalls-done counters read naturally).
    use_done = track_stats or bool((thr < NEVER_DONE).any())

    latched = np.empty((n_lanes, n_queues), dtype=np.int64)
    latched_in = latched[:, :n_shell]
    latched_rs = latched[:, n_shell:]
    occ_in = occ[:, :n_shell]
    occ_rs = occ[:, n_shell:]
    occ_r = occ.reshape(-1)
    done_now = np.empty((n_lanes, n_procs), dtype=bool)
    missing_pe = np.empty((n_lanes, n_inputs), dtype=bool)
    miss_any = np.zeros((n_lanes, n_procs), dtype=bool)
    miss_seg = np.empty((n_lanes, len(in_seg_procs)), dtype=bool)
    ent_occ = np.empty((n_lanes, n_outputs), dtype=np.int64)
    blocked_pe = np.empty((n_lanes, n_outputs), dtype=bool)
    blocked_any = np.zeros((n_lanes, n_procs), dtype=bool)
    blocked_seg = np.empty((n_lanes, len(out_seg_procs)), dtype=bool)
    stall = np.empty((n_lanes, n_procs), dtype=bool)
    fire = np.empty((n_lanes, n_procs), dtype=bool)
    fire_int = np.empty((n_lanes, n_procs), dtype=np.int64)
    consume = np.empty((n_lanes, n_inputs), dtype=np.int64)
    launch = np.empty((n_lanes, n_outputs), dtype=np.int64)
    hop_dst_occ = np.empty((n_lanes, n_hops), dtype=np.int64)
    move = np.empty((n_lanes, n_hops), dtype=bool)
    move_dst = np.empty((n_lanes, n_hops), dtype=bool)
    move_int = np.empty((n_lanes, n_hops), dtype=np.int64)
    fired_lane = np.empty(n_lanes, dtype=bool)
    lane_a = np.empty(n_lanes, dtype=bool)
    lane_b = np.empty(n_lanes, dtype=bool)
    stopped = np.empty(n_lanes, dtype=bool)

    bound = controls.loop_bound()
    horizon = controls.horizon
    deadlock_limit = controls.deadlock_limit
    extra_cycles = controls.extra_cycles
    cycle = 0
    n_active = n_lanes
    any_draining = False
    # An idle streak grows by at most one per cycle, so with fewer total
    # cycles than the deadlock limit the detector can never trigger: skip
    # its per-cycle bookkeeping entirely.
    track_deadlock = deadlock_limit <= bound

    while n_active and cycle < bound:
        # Phase 1: latch occupancies (registered back-pressure).
        np.copyto(latched, occ)

        # Phase 2 (vectorised): every firing decision reads the latch.  For
        # eligible netlists a non-empty input FIFO always heads the current
        # tag, so readiness is occupancy > 0; WP2 discard scans are no-ops.
        np.equal(latched_in, 0, out=missing_pe)
        if in_full:
            np.logical_or.reduceat(missing_pe, in_starts, axis=1, out=miss_any)
        elif len(in_seg_procs):
            np.logical_or.reduceat(missing_pe, in_starts, axis=1, out=miss_seg)
            miss_any[:, in_seg_procs] = miss_seg
        # mode="clip" skips bounds checking (and its mandatory temporary);
        # every index set here is static and in range by construction.
        np.take(latched, ent_flat, out=ent_occ, mode="clip")
        np.greater_equal(ent_occ, caps_at_ent, out=blocked_pe)
        if out_full:
            np.logical_or.reduceat(
                blocked_pe, out_starts, axis=1, out=blocked_any
            )
        elif len(out_seg_procs):
            np.logical_or.reduceat(
                blocked_pe, out_starts, axis=1, out=blocked_seg
            )
            blocked_any[:, out_seg_procs] = blocked_seg
        np.logical_or(miss_any, blocked_any, out=stall)
        if use_done:
            np.greater_equal(fir, thr_row, out=done_now)
            np.logical_or(stall, done_now, out=stall)
        np.logical_not(stall, out=fire)
        if n_active != n_lanes:
            np.logical_and(fire, active_col, out=fire)

        if track_stats:
            live = active_col & ~done_now
            st_done += active_col & done_now
            st_missing += live & miss_any
            st_blocked += live & ~miss_any & blocked_any
            st_missing_pe += missing_pe & live[:, in_proc]

        # Consume one token per input port of every firing shell (qid k is
        # the FIFO of input-port k, so the update is one contiguous op).
        np.copyto(fire_int, fire, casting="unsafe")
        np.take(fire_int, in_take, out=consume, mode="clip")
        occ_in -= consume
        fir += fire_int

        # Phase 3: commit relay-station hops (latched decisions), then
        # producer launches into per-lane entry elements.  Frozen lanes are
        # masked out so their state stays exactly as it froze.
        if n_hops:
            np.greater(latched_rs, 0, out=move)
            np.take(latched, hop_flat_dst, out=hop_dst_occ, mode="clip")
            np.less(hop_dst_occ, hop_caps, out=move_dst)
            np.logical_and(move, move_dst, out=move)
            if n_active != n_lanes:
                np.logical_and(move, active_col, out=move)
            np.copyto(move_int, move, casting="unsafe")
            occ_rs -= move_int
            occ_r[hop_flat_dst] += move_int
        np.take(fire_int, out_take, out=launch, mode="clip")
        occ_r[ent_flat] += launch

        if track_occ:
            # End-of-cycle sampling matches the scalar kernels: launch
            # targets and hop destinations are the only elements that can
            # set a new maximum, and both hold their end-of-cycle count at
            # the scalar kernels' sampling points.
            np.maximum(maxocc, occ, out=maxocc)

        cycle += 1

        # Deadlock accounting precedes the stop logic (a draining lane can
        # still deadlock), exactly like the scalar kernels.  Frozen lanes'
        # streaks keep counting but are masked out of the deadlock check.
        if track_deadlock:
            np.logical_or.reduce(fire, axis=1, out=fired_lane)
            idle_streak += 1
            np.logical_not(fired_lane, out=lane_a)
            idle_streak *= lane_a
            np.greater_equal(idle_streak, deadlock_limit, out=lane_a)
            np.logical_and(lane_a, active, out=lane_a)
            if lane_a.any():
                for lane in np.flatnonzero(lane_a):
                    lane_layout = models[lane].layout
                    hint = lane_layout.topology().deadlock_hint(
                        lane_layout.chan_names
                    )
                    errors[int(lane)] = DeadlockError(
                        f"no process fired for {int(idle_streak[lane])} "
                        f"consecutive cycles (cycle {cycle}, configuration "
                        f"{models[lane].configuration_label!r})"
                        f"{hint}"
                    )
                active &= ~lane_a
                n_active = int(active.sum())

        # Stop conditions consult post-firing state (is_done after this
        # cycle's firings), only on lanes not already draining.
        if stop_possible:
            if stop_mode == STOP_TARGET:
                np.logical_and.reduce(
                    fir[:, t_idx] >= t_cnt[None, :], axis=1, out=stopped
                )
            elif stop_mode == STOP_PROCESS:
                np.greater_equal(fir[:, stop_arg], thr[stop_arg], out=stopped)
            else:
                assert stop_mode == STOP_ANY_DONE
                np.greater_equal(fir, thr_row, out=done_now)
                np.logical_or.reduce(done_now, axis=1, out=stopped)
            stopped &= active
            if any_draining:
                np.less(drain, 0, out=lane_b)
                stopped &= lane_b
            if stopped.any():
                halted_arr |= stopped
                drain[stopped] = extra_cycles
                any_draining = True
        if any_draining:
            draining = active & (drain >= 0)
            finish = draining & (drain == 0)
            if finish.any():
                final_cycles[finish] = cycle
                active &= ~finish
                n_active = int(active.sum())
            drain[draining & ~finish] -= 1
            any_draining = bool((active & (drain >= 0)).any())

    # Lanes still active ran out of cycles: a horizon is a normal halt, a
    # max_cycles bound is a timeout error (per lane).
    if active.any():
        if horizon is not None and cycle >= horizon:
            halted_arr |= active
            final_cycles[active] = cycle
        else:
            for lane in np.flatnonzero(active):
                errors[int(lane)] = SimulationError(
                    f"simulation did not terminate within "
                    f"{controls.max_cycles} cycles (configuration "
                    f"{models[lane].configuration_label!r})"
                )

    # -- per-lane result assembly --------------------------------------------
    results: List[Union[LidResult, Exception]] = []
    for lane, model in enumerate(models):
        error = errors.get(lane)
        if error is not None:
            results.append(error)
            continue
        lane_cycles = int(final_cycles[lane])
        firings = {proc_names[p]: int(fir[lane, p]) for p in range(n_procs)}
        if track_stats:
            shell_stats = {}
            missing_by_port: List[Dict[str, int]] = [{} for _ in range(n_procs)]
            for k in range(len(flat_in)):
                count = int(st_missing_pe[lane, k])
                if count:
                    missing_by_port[int(in_proc[k])][in_port_names[k]] = count
            for p in range(n_procs):
                shell_stats[proc_names[p]] = ShellStats(
                    cycles=lane_cycles,
                    firings=int(fir[lane, p]),
                    stalls_missing_input=int(st_missing[lane, p]),
                    stalls_output_blocked=int(st_blocked[lane, p]),
                    stalls_done=int(st_done[lane, p]),
                    discarded_tokens=0,
                    discarded_by_port={},
                    missing_by_port=missing_by_port[p],
                )
        else:
            shell_stats = {}
        if track_occ:
            # Translate the padded destination-aligned slot space back to the
            # lane's own element naming: relay station i of channel c sits
            # R_l - i hops from the destination.
            max_occupancy = {
                layout.shell_queue_names[layout_q]: int(maxocc[lane, k])
                for k, layout_q in enumerate(shell_caps_order)
            }
            for cid, cname in enumerate(chan_names):
                count = rs_counts_per_lane[lane][cid]
                for index in range(count):
                    max_occupancy[f"{cname}.rs{index}"] = int(
                        maxocc[lane, slot(cid, count - index)]
                    )
        else:
            max_occupancy = {}
        results.append(
            LidResult(
                cycles=lane_cycles,
                firings=firings,
                trace=SystemTrace(chan_names),
                halted=bool(halted_arr[lane]),
                wrapper_kind=model.wrapper_kind,
                configuration_label=model.configuration_label,
                rs_counts=dict(model.rs_counts),
                shell_stats=shell_stats,
                max_queue_occupancy=max_occupancy,
                period=None,
                warmup_cycles=None,
                extrapolated=False,
            )
        )
    return results


class LockstepKernel(SimKernel):
    """Vectorised structure-of-arrays kernel over same-layout configurations.

    As a :class:`~repro.engine.kernel.SimKernel` it runs one model (a
    single-lane batch); the payoff comes from
    :meth:`repro.engine.batch.BatchRunner.run_many`, which groups same-layout
    work items into one :func:`run_lockstep_batch` call when the runner's
    kernel is ``"lockstep"``.  Ineligible runs (see :func:`lockstep_reason`)
    delegate to the scalar :class:`~repro.engine.compiled.CompiledKernel`,
    the production kernel.
    """

    name = "lockstep"

    def __init__(self, model: ElaboratedModel) -> None:
        require_numpy()
        super().__init__(model)

    def run(self, controls: RunControls, instruments: InstrumentSet) -> LidResult:
        reason = lockstep_reason(self.model, controls, instruments)
        if reason is not None:
            from .compiled import CompiledKernel

            return CompiledKernel(self.model).run(controls, instruments)
        result = run_lockstep_batch([self.model], controls, instruments)[0]
        if isinstance(result, Exception):
            raise result
        return result
