"""Code generation for the compiled kernel: netlist -> specialized Python.

The production kernel emits Python **source** specialized to one netlist
layout and compiles it into an entire run loop:

* every shell FIFO becomes a local variable (``q7``) bound to a ``deque``
  once (with its ``append``/``popleft`` pre-bound), so token movement is a
  C-level method call on a local;
* queues hold **raw values, not (value, tag) pairs**: on a correct channel
  tokens arrive in strictly increasing, gapless tag order, so the head tag
  of a shell FIFO is simply the number of tokens ever popped from it.  WP1
  consumes one token per port per firing, which makes the head tag always
  equal to the consumer's firing counter — the per-port tag checks vanish
  entirely and a WP1 shell's whole firing guard folds into one ``and``
  chain over occupancies.  WP2 keeps one integer counter per shell FIFO
  (``g7``), incremented on every pop, against which stale-token discarding
  compares.  No tuple is ever allocated for a moving token;
* **relay chains are packed words** (DESIGN.md §3).  Token values never
  move along a chain: every value in flight on a channel, in its relay
  stations or its destination FIFO, sits in the destination FIFO's deque in
  arrival order, and the FIFO's integer counter ``n7`` says how many of them
  have arrived.  A channel with relay stations carries one integer ``c3``
  with one bit-field per station holding its occupancy; one cycle's hops
  along the whole chain are a handful of integer operations on that word,
  whatever its depth.  The generated source therefore depends only on
  *which* channels have relay stations, never on how many, and relay-station
  depths, RS capacity and queue capacity are per-run data;
* the per-cycle occupancy latch disappears: forwarding decisions are taken
  at the top of the cycle, where the counters still hold start-of-cycle
  values, and committed after the shell phase; back-pressure reads use the
  counter (or field 0 of the chain word) directly when no earlier shell can
  have touched it this cycle, or a one-integer copy (``l7 = n7``) latched at
  the top of the cycle otherwise.  The occupancy instrument samples FIFO
  maxima at the commit sites and keeps one per-field maximum word per chain;
* hooks the processes do not override are folded away: a process that never
  overrides ``is_done`` loses its per-cycle done guard (the base method is
  the constant ``False``); one that declares
  :attr:`~repro.core.process.Process.done_attribute` has the guard read
  that attribute instead of calling the method; and a WP2 process without a
  ``required_ports`` override skips the oracle call and the unknown-port
  validation;
* a token launched into a shell FIFO that its owner can still read later
  this cycle waits in one pending-slot local per channel, committed after
  the forwarding phase; every other launch is appended immediately;
* instrumentation (trace / shell stats / occupancy) is **compiled in only
  when the corresponding pass is enabled**;
* when the run is eligible for **steady-state detection** (see
  :mod:`repro.engine.steady_state` and DESIGN.md §4), the canonical
  snapshot is compiled into the loop as one tuple of the pre-maintained
  integers — FIFO counters, chain words, firing-counter differences, the
  sampled ``schedule_state()`` of the few dynamic processes — keyed into a
  plain dict, and once a period is measured the generated jump block
  advances cycles, firing counters, ``g`` counters and stall statistics
  analytically.

The generated function is an entire run loop (not a per-cycle callable),
specialized on the stop-condition *mode* (any-done / firing-targets /
stop-process), on whether a cycle **horizon** bounds the run, and on whether
the steady-state detector is armed; the stop condition is only re-evaluated
after a cycle in which something fired.

Scheduling semantics are those of the reference kernel (every decision
against start-of-cycle state, shells in process order, then relay-station
moves and deferred launches); the property suites in ``tests/test_engine.py``
and ``tests/test_steady_state.py`` pin cycle-for-cycle equality.

Two caches keep compilation off the hot path.  Each
:class:`~repro.engine.elaboration.NetlistLayout` keeps its run functions
keyed by :func:`model_signature`, and one process-wide LRU of at most
:data:`CODE_CACHE_SIZE` code objects is keyed by the generated source text,
so layouts of the same shape (a renamed ring, a CPU on another data seed)
share one ``compile()``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, defaultdict, deque
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..core.exceptions import (
    DeadlockError,
    NetlistError,
    ProtocolError,
    SimulationError,
)
from ..core.process import overrides_hook
from ..core.tokens import Token, VOID
from .elaboration import ElaboratedModel
from .instrumentation import InstrumentSet
from .steady_state import (
    certify_model,
    channel_offset_pairs,
    periods_to_skip,
    stats_jump,
)

#: Name of the generated entry point inside the compiled namespace.
ENTRY_POINT = "__lid_run"

#: Attribute under which the per-layout function cache is stored.
_CACHE_ATTR = "_compiled_run_cache"

#: Bound of the process-wide source-text → code-object cache.
CODE_CACHE_SIZE = 64

_CODE_CACHE: "OrderedDict[str, Tuple[str, object]]" = OrderedDict()
_CODE_CACHE_LOCK = threading.Lock()

#: Stop-condition modes a run loop can be specialized for.
STOP_ANY_DONE = 0      #: stop when any process reports done
STOP_TARGET = 1        #: stop once per-process firing targets are met
STOP_PROCESS = 2       #: stop when one designated process reports done


def resolve_stop(controls, proc_names):
    """Resolve run controls to an integer-indexed ``(stop_mode, stop_arg)``.

    ``stop_arg`` is ``[(proc_index, count), ...]`` for :data:`STOP_TARGET`,
    the designated process index for :data:`STOP_PROCESS`, and ``None`` for
    :data:`STOP_ANY_DONE`.  Shared by the compiled and lockstep kernels so
    both stop conditions resolve against the same layout ordering.  The
    *controls* argument is duck-typed (``target_firings`` / ``stop_process``
    attributes) to keep this module import-light.
    """
    if controls.target_firings is not None:
        index = {name: i for i, name in enumerate(proc_names)}
        return STOP_TARGET, [
            (index[name], count)
            for name, count in controls.target_firings.items()
        ]
    if controls.stop_process is not None:
        return STOP_PROCESS, proc_names.index(controls.stop_process)
    return STOP_ANY_DONE, None


def _raise_unknown_ports(name: str, required, portset) -> None:
    raise ProtocolError(
        f"oracle of process {name!r} required unknown ports "
        f"{sorted(required - portset)}"
    )


def _raise_output_mismatch(process, outputs) -> None:
    """Raise the same NetlistError Process.step() would have raised."""
    missing = [port for port in process.output_ports if port not in outputs]
    if missing:
        raise NetlistError(
            f"process {process.name!r} did not drive output ports {missing}"
        )
    unexpected = [port for port in outputs if port not in process.output_ports]
    raise NetlistError(
        f"process {process.name!r} drove undeclared output ports {unexpected}"
    )


def relay_fields(rs_capacity: int) -> Tuple[int, int]:
    """``(field width, value bits)`` of a chain word for *rs_capacity*.

    Each relay station owns ``width`` bits: ``value bits`` hold its
    occupancy (0..capacity) and the top bit is a guard that stays clear in
    the word, so per-field comparisons can be done with one addition.
    """
    value_bits = max(rs_capacity, 1).bit_length()
    return value_bits + 1, value_bits


def relay_words(model: ElaboratedModel) -> Tuple[Tuple[int, ...], List]:
    """Per-run data of the packed relay chains: ``(caps, per-channel masks)``.

    ``caps`` is ``(queue capacity, RS capacity, width, value bits, hop
    multiplier, field-0 mask)``; the masks of a channel with *k* relay
    stations (``None`` without any) are

    * ``M`` — ``2^v - 1`` in every field: ``(c + M)`` sets a field's guard
      bit iff the field is non-empty;
    * ``F`` — ``2^v - capacity`` in every field: ``(c + F)`` sets it iff the
      field is full;
    * ``I`` — the guard bits of fields ``0 .. k-2`` (sources of internal
      hops);
    * ``L`` — every bit below the top field (some internal hop is possible);
    * ``T`` — the unit of the top field (the hop into the FIFO);
    * ``G`` — every guard bit (per-field maxima of the occupancy instrument).
    """
    capacity = model.rs_capacity
    width, value_bits = relay_fields(capacity)
    field_one = (1 << width) - 1
    chains: List = []
    for chain in model.chan_chain:
        k = len(chain) - 1
        if not k:
            chains.append(None)
            continue
        ones = ((1 << (k * width)) - 1) // field_one  # 1 in every field
        guards = ones << value_bits
        top = 1 << ((k - 1) * width)
        chains.append((
            ((1 << value_bits) - 1) * ones,
            ((1 << value_bits) - capacity) * ones,
            guards & (top - 1),
            top - 1,
            top,
            guards,
        ))
    caps = (
        model.queue_capacity, capacity, width, value_bits, field_one,
        (1 << value_bits) - 1,
    )
    return caps, chains


class _Writer:
    """Tiny indentation-aware line emitter."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.depth = 0

    def emit(self, line: str = "") -> None:
        self.lines.append("    " * self.depth + line if line else "")

    def push(self) -> None:
        self.depth += 1

    def pop(self) -> None:
        self.depth -= 1

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class _Block:
    def __init__(self, writer: _Writer) -> None:
        self.writer = writer

    def __enter__(self) -> None:
        self.writer.push()

    def __exit__(self, *exc) -> None:
        self.writer.pop()


def model_signature(
    model: ElaboratedModel,
    instruments: InstrumentSet,
    stop_mode: int = STOP_PROCESS,
    steady: bool = False,
    horizon: bool = False,
) -> Tuple:
    """The per-layout cache key of one bound model + instrument selection.

    Two bindings of the same layout share compiled code iff they agree on
    which channels carry relay stations at all, the wrapper flavour, the
    instrument flags, the stop-condition mode and the horizon / steady-state
    specializations.  Everything else — relay-station depths, queue and RS
    capacities, the configuration label, the stop targets, the horizon cycle
    count, the detection window — is runtime data.
    """
    return (
        tuple(len(chain) > 1 for chain in model.chan_chain),
        model.relaxed,
        instruments.trace,
        instruments.shell_stats,
        instruments.occupancy,
        stop_mode,
        steady,
        horizon,
    )


class _Generator:
    """Builds the specialized run-loop source for one bound model."""

    def __init__(
        self,
        model: ElaboratedModel,
        instruments: InstrumentSet,
        stop_mode: int = STOP_PROCESS,
        steady: bool = False,
        horizon: bool = False,
    ) -> None:
        self.model = model
        self.layout = layout = model.layout
        self.stop_mode = stop_mode
        self.relaxed = model.relaxed
        self.tracing = instruments.trace
        self.stats = instruments.shell_stats
        self.occ = instruments.occupancy
        self.horizon = horizon
        self.steady = steady and not instruments.trace
        self.n_procs = len(layout.processes)
        self.n_chans = len(layout.chan_names)
        self.n_queues = layout.n_shell_queues
        self.done_ovr = [overrides_hook(p, "is_done") for p in layout.processes]
        # A declared boolean done-attribute lets the guard read an attribute
        # instead of calling is_done() every cycle (see Process.done_attribute).
        self.done_attr = [p.done_attribute for p in layout.processes]
        self.req_ovr = [
            overrides_hook(p, "required_ports") for p in layout.processes
        ]
        self.dest = layout.chan_dest_qid
        # Channels carrying a packed relay word (depth >= 1 this binding).
        self.rs_cids = [
            cid for cid, chain in enumerate(model.chan_chain) if len(chain) > 1
        ]
        self.has_rs = set(self.rs_cids)
        # Owner (consuming process) of every shell input FIFO.
        self.queue_owner: Dict[int, int] = {}
        for p, qids in enumerate(layout.in_qids):
            for qid in qids:
                self.queue_owner[qid] = p
        # Back-pressure reads that need a top-of-cycle latched copy: the
        # channel has no relay station and the FIFO's owner runs at or
        # before the producer, so the owner's pops (WP1 consumes, WP2 also
        # discards before its own back-pressure check) precede the read.  A
        # chain word's field 0 only changes at its own producer's launch.
        self.guard_copy: Set[int] = set()
        for p in range(self.n_procs):
            for cid in layout.out_chans[p]:
                if cid in self.has_rs:
                    continue
                owner = self.queue_owner[self.dest[cid]]
                if owner < p or (owner == p and self.relaxed):
                    self.guard_copy.add(self.dest[cid])
        self.deferred_cids = sorted(
            cid
            for p in range(self.n_procs)
            for cid in layout.out_chans[p]
            if self._deferred(p, cid)
        )
        # Steady-state snapshot plan (processes to sample, tag offsets, the
        # per-FIFO pop counters a jump must advance; certified mode also
        # keys queued token values and deep-verifies each candidate period).
        if self.steady:
            certification = certify_model(model)
            assert certification is not None, "steady codegen on an unsupported model"
            dynamic, self.ss_certified = certification
            self.ss_sig_procs = dynamic
            # Processes whose internal state stores absolute firing tags
            # must shift it at the analytic jump (Process.schedule_jump);
            # the no-op base hook is folded away.
            self.ss_jump_procs = [
                p
                for p in range(self.n_procs)
                if overrides_hook(layout.processes[p], "schedule_jump")
            ]
            self.ss_done_procs = [p for p in dynamic if self.done_ovr[p]]
            self.ss_offsets = channel_offset_pairs(model) if self.relaxed else []
            self.ss_g_queues = [
                qid
                for p in range(self.n_procs)
                if self.relaxed and self.req_ovr[p]
                for qid in layout.in_qids[p]
            ]
        self.w = _Writer()

    # -- expression helpers -----------------------------------------------------
    def _done_expr(self, p: int) -> str:
        attr = self.done_attr[p]
        return f"p{p}.{attr}" if attr else f"p{p}_done()"

    def _full_exprs(self, p: int, full: bool) -> List[str]:
        """Start-of-cycle back-pressure test of every output channel of *p*.

        ``full=True`` gives the "blocked" form, ``False`` the "free" form.
        A chain-free channel reads its FIFO's counter (or latched copy), a
        relay chain the occupancy of its first station, field 0 of its word.
        """
        op = ">=" if full else "<"
        exprs = []
        for cid in self.layout.out_chans[p]:
            if cid in self.has_rs:
                exprs.append(f"(c{cid} & _vm) {op} _rc")
            else:
                qid = self.dest[cid]
                read = f"l{qid}" if qid in self.guard_copy else f"n{qid}"
                exprs.append(f"{read} {op} _qc")
        return exprs

    def _deferred(self, p: int, cid: int) -> bool:
        """Whether a token launched by process *p* on channel *cid* must wait.

        A launch into a relay chain appends its value behind every value the
        FIFO's counter has admitted, so it is invisible to the consumer until
        its hop and commits at once.  A launch straight into a shell FIFO may
        commit immediately iff the owning shell already executed this cycle
        (``owner <= p``).  Occupancy instrumentation defers every FIFO launch
        so its maxima are sampled after the whole commit phase.
        """
        if cid in self.has_rs:
            return False
        if self.occ:
            return True
        return self.queue_owner[self.dest[cid]] > p

    def _emit_push(self, qid: int, value_expr: str) -> None:
        """Append *value_expr* to FIFO *qid*, maintaining its counter."""
        self.w.emit(f"q{qid}_ap({value_expr})")
        self.w.emit(f"n{qid} += 1")

    def _emit_pop_count(self, qid: int) -> None:
        """Counter maintenance for a pop from FIFO *qid* (pop emitted by caller)."""
        self.w.emit(f"n{qid} -= 1")

    def _emit_occ_sample(self, qid: int) -> None:
        """Fold the counter of *qid* into the occupancy maxima."""
        self.w.emit(f"if n{qid} > mo[{qid}]:")
        with _Block(self.w):
            self.w.emit(f"mo[{qid}] = n{qid}")

    def generate(self) -> str:
        w = self.w
        layout = self.layout
        w.emit(
            f"def {ENTRY_POINT}(procs, fir, label, max_cycles, deadlock_limit, "
            "extra_cycles, stop_mode, stop_arg, horizon, ss_window, caps, "
            "chains):"
        )
        w.push()

        # -- prologue: hoist process methods, build run state ----------------
        for p in range(self.n_procs):
            w.emit(f"p{p} = procs[{p}]")
            w.emit(f"p{p}_fire = p{p}.fire")
            w.emit(f"o{p} = OUT{p}")
            if self.done_ovr[p] and not self.done_attr[p]:
                w.emit(f"p{p}_done = p{p}.is_done")
            if self.relaxed and self.req_ovr[p]:
                w.emit(f"p{p}_req = p{p}.required_ports")
                w.emit(f"r{p} = PORTS{p}")
        w.emit("for _proc in procs:")
        with _Block(w):
            w.emit("_proc.reset()")
        w.emit("_qc, _rc, _w, _w1, _K, _vm = caps")
        appended = set(self.dest)
        for q in range(self.n_queues):
            w.emit(f"q{q} = deque()")
            if q in self.queue_owner:
                w.emit(f"q{q}_pop = q{q}.popleft")
            if q in appended:
                w.emit(f"q{q}_ap = q{q}.append")
            w.emit(f"n{q} = 0")
        for cid in self.rs_cids:
            w.emit(f"c{cid} = 0")
            w.emit(f"_m{cid}, _f{cid}, _i{cid}, _lo{cid}, _t{cid}, _g{cid} = "
                   f"chains[{cid}]")
            if self.occ:
                w.emit(f"x{cid} = 0")
        for p in range(self.n_procs):
            w.emit(f"f{p} = 0")
        if self.relaxed:
            # Per-FIFO head-tag counters (tags are implicit, see module doc).
            # Only oracle-bearing shells can leave stale tokens behind; an
            # all-required shell consumes every port on every firing, so its
            # head tags provably equal its firing counter and need no counter.
            for p in range(self.n_procs):
                if self.req_ovr[p]:
                    for q in layout.in_qids[p]:
                        w.emit(f"g{q} = 0")
        if self.occ:
            w.emit(f"mo = [0] * {self.n_queues}")
        for cid in range(self.n_chans):
            qid = self.dest[cid]
            self._emit_push(qid, f"CHAN_INIT[{cid}]")
            if self.occ:
                w.emit(f"mo[{qid}] = 1")
        if self.stats:
            w.emit(f"st_missing = [0] * {self.n_procs}")
            w.emit(f"st_blocked = [0] * {self.n_procs}")
            w.emit(f"st_done = [0] * {self.n_procs}")
            w.emit(f"st_disc = [0] * {self.n_procs}")
            w.emit(f"st_dp = [_dd(int) for _ in range({self.n_procs})]")
            w.emit(f"st_mp = [_dd(int) for _ in range({self.n_procs})]")
        if self.tracing:
            w.emit(f"chan_items = [[] for _ in range({self.n_chans})]")
        for cid in self.deferred_cids:
            w.emit(f"d{cid} = _NP")
        w.emit("cycles = 0")
        w.emit("idle = 0")
        w.emit("halted = False")
        w.emit("drain = None")
        if self.horizon:
            w.emit("_bound = horizon if horizon < max_cycles else max_cycles")
        else:
            w.emit("_bound = max_cycles")
        if self.steady:
            # Steady-state detector state: 1 = searching, 2 = measuring one
            # concrete period, 0 = off.
            w.emit("_ss = 1")
            w.emit("_ss_seen = {}")
            w.emit("_ss_p = 0")
            w.emit("_ss_w = 0")
            w.emit("_ss_end = -1")
            w.emit("_extrap = False")
            for p in self.ss_sig_procs:
                w.emit(f"p{p}_ss = p{p}.schedule_state")
            if self.ss_certified:
                for p in self.ss_sig_procs:
                    w.emit(f"p{p}_vs = p{p}.schedule_verify_state")
            for p in self.ss_jump_procs:
                w.emit(f"p{p}_sj = p{p}.schedule_jump")
        if self.stop_mode == STOP_PROCESS:
            w.emit("_stop_done = procs[stop_arg].is_done")

        # -- main loop --------------------------------------------------------
        w.emit("while cycles < _bound:")
        w.push()
        if self.steady:
            self._steady_block()
        # Phase 1: forwarding decisions against start-of-cycle state, plus
        # latched copies for the back-pressure reads that need them.  An
        # internal hop moves station i's oldest token to station i+1 when i
        # is non-empty and i+1 not full: the guard bits of (c + M) and of
        # (c + F) shifted down one field select every such i at once.  The
        # top station's hop into the FIFO tests the FIFO's counter.
        for cid in self.rs_cids:
            w.emit(
                f"h{cid} = c{cid} & _lo{cid} and (c{cid} + _m{cid}) & "
                f"~((c{cid} + _f{cid}) >> _w) & _i{cid}"
            )
            w.emit(f"t{cid} = c{cid} >= _t{cid} and n{self.dest[cid]} < _qc")
        for q in sorted(self.guard_copy):
            w.emit(f"l{q} = n{q}")
        w.emit("fired_any = False")
        if self.tracing:
            w.emit(f"_e = [VOID] * {self.n_chans}")

        # Phase 2: shells, in process order.
        for p in range(self.n_procs):
            self._shell(p)

        # Phase 3: commit relay-station moves, then deferred launches.  A
        # selected internal hop i adds 2^((i+1)w) - 2^(iw) = 2^(iw) * K to
        # the word, so all of them commit as one multiply-add.
        for cid in self.rs_cids:
            w.emit(f"if h{cid}:")
            with _Block(w):
                w.emit(f"c{cid} += (h{cid} >> _w1) * _K")
            w.emit(f"if t{cid}:")
            with _Block(w):
                w.emit(f"c{cid} -= _t{cid}")
                w.emit(f"n{self.dest[cid]} += 1")
                if self.occ:
                    self._emit_occ_sample(self.dest[cid])
        for cid in self.deferred_cids:
            qid = self.dest[cid]
            w.emit(f"if d{cid} is not _NP:")
            with _Block(w):
                self._emit_push(qid, f"d{cid}")
                if self.occ:
                    self._emit_occ_sample(qid)
                w.emit(f"d{cid} = _NP")
        if self.occ and self.rs_cids:
            # Per-field maximum of each chain word against its running
            # maximum word x.  A field only grows by a launch (field 0) or an
            # internal hop, so x needs updating only after a hop or when
            # field 0 passed its maximum; then the guard bit of (x | G) - c
            # is set where x_i >= c_i, and spreading it over the field
            # selects x_i there.
            for cid in self.rs_cids:
                w.emit(f"if h{cid} or c{cid} & _vm > x{cid} & _vm:")
                with _Block(w):
                    w.emit(f"_d = ((x{cid} | _g{cid}) - c{cid}) & _g{cid}")
                    w.emit("_d -= _d >> _w1")
                    w.emit(f"x{cid} = (x{cid} & _d) | (c{cid} & ~_d)")

        if self.tracing:
            w.emit("for _cl, _cv in zip(chan_items, _e):")
            with _Block(w):
                w.emit("_cl.append(_cv)")
        w.emit("cycles += 1")
        w.emit("if fired_any:")
        with _Block(w):
            w.emit("idle = 0")
        w.emit("else:")
        with _Block(w):
            w.emit("idle += 1")
            w.emit("if idle >= deadlock_limit:")
            with _Block(w):
                # The loop-closing channel hint is layout-static, so it is
                # baked into the generated source as a literal suffix.
                hint = layout.topology().deadlock_hint(
                    layout.chan_names
                ).replace("%", "%%").replace("'", "\\'")
                w.emit(
                    "raise DeadlockError('no process fired for %d consecutive "
                    f"cycles (cycle %d, configuration %r){hint}' "
                    "% (idle, cycles, label))"
                )
        # Process state is only mutated by firings, so the stop condition can
        # only change after a firing (or on the very first evaluation).
        w.emit("if drain is None and (fired_any or cycles == 1):")
        with _Block(w):
            if self.stop_mode == STOP_TARGET:
                w.emit("_stop = True")
                w.emit("for _si, _sc in stop_arg:")
                with _Block(w):
                    w.emit("if fir[_si] < _sc:")
                    with _Block(w):
                        w.emit("_stop = False")
                        w.emit("break")
            elif self.stop_mode == STOP_PROCESS:
                w.emit("_stop = _stop_done()")
            else:
                candidates = [
                    self._done_expr(p)
                    for p in range(self.n_procs)
                    if self.done_ovr[p]
                ]
                w.emit(f"_stop = {' or '.join(candidates) if candidates else 'False'}")
            w.emit("if _stop:")
            with _Block(w):
                w.emit("halted = True")
                w.emit("drain = extra_cycles")
                if self.steady:
                    w.emit("_ss = 0  # at most extra_cycles left: nothing to skip")
        w.emit("if drain is not None:")
        with _Block(w):
            w.emit("if drain == 0:")
            with _Block(w):
                w.emit("break")
            w.emit("drain -= 1")
        w.pop()  # while
        w.emit("else:")
        with _Block(w):
            if self.horizon:
                w.emit("if cycles < horizon:")
                with _Block(w):
                    w.emit(
                        "raise SimulationError('simulation did not terminate "
                        "within %d cycles (configuration %r)' % "
                        "(max_cycles, label))"
                    )
                w.emit("halted = True  # reaching the horizon is a normal halt")
            else:
                w.emit(
                    "raise SimulationError('simulation did not terminate within "
                    "%d cycles (configuration %r)' % (max_cycles, label))"
                )

        # -- epilogue ----------------------------------------------------------
        for p in range(self.n_procs):
            w.emit(f"fir[{p}] = f{p}")
        trace_out = "chan_items" if self.tracing else "None"
        stats_out = (
            "(st_missing, st_blocked, st_done, st_disc, st_dp, st_mp)"
            if self.stats
            else "None"
        )
        if self.occ:
            words = "".join(f"{cid}: x{cid}, " for cid in self.rs_cids)
            occ_out = f"(mo, {{{words}}})"
        else:
            occ_out = "None"
        if self.steady:
            ss_out = "_ss_p, _ss_w, _extrap"
        else:
            ss_out = "0, 0, False"
        w.emit(
            f"return (cycles, halted, {trace_out}, {stats_out}, {occ_out}, "
            f"{ss_out})"
        )
        w.pop()
        return w.source()

    # -- steady-state detection ------------------------------------------------
    def _key_expr(self) -> str:
        """The canonical snapshot key as one tuple expression.

        Plain mode: the FIFO counters and chain words the loop already
        maintains (one word stands for its stations' counters) plus the
        dynamic ``schedule_state()`` samples.  Certified mode additionally
        keys the queued token values of every FIFO deque, which hold the
        chains' values too (each is one ``tuple(q)`` call).
        """
        parts = [f"n{q}" for q in range(self.n_queues)]
        parts += [f"c{cid}" for cid in self.rs_cids]
        parts += [f"f{s} - f{d}" for s, d in self.ss_offsets]
        parts += [f"p{p}_ss()" for p in self.ss_sig_procs]
        parts += [self._done_expr(p) for p in self.ss_done_procs]
        if self.ss_certified:
            parts += [f"tuple(q{q})" for q in range(self.n_queues)]
        return f"({', '.join(parts)}{',' if len(parts) == 1 else ''})"

    def _verify_expr(self) -> str:
        """Deep-verification tuple: exact state behind every summary."""
        parts = [f"p{p}_vs()" for p in self.ss_sig_procs]
        return f"({', '.join(parts)}{',' if len(parts) == 1 else ''})"

    def _steady_block(self) -> None:
        """Snapshot / measure / jump logic at the top of every cycle.

        The snapshot is one tuple of integers already held in locals (plus
        the handful of dynamic ``schedule_state()`` samples and, under a
        certified plan, the queue-value tuples), so the searching phase costs
        one tuple build and one dict probe per cycle and allocates nothing
        else.  Certified plans store key *hashes* in the dictionary (one int
        per searched cycle) and deep-verify each candidate period before the
        jump; a failed verification resumes the search.
        """
        w = self.w
        certified = self.ss_certified
        key = self._key_expr()
        fs = ", ".join(f"f{p}" for p in range(self.n_procs))
        w.emit("if _ss == 1:")
        with _Block(w):
            w.emit(f"_sk = {key}")
            if certified:
                w.emit("_skh = hash(_sk)")
            probe = "_skh" if certified else "_sk"
            w.emit(f"_pv = _ss_seen.get({probe})")
            w.emit("if _pv is None:")
            with _Block(w):
                w.emit(f"_ss_seen[{probe}] = cycles")
                w.emit("if cycles >= ss_window:")
                with _Block(w):
                    w.emit("_ss = 0")
                    w.emit("_ss_seen = None")
            w.emit("else:")
            with _Block(w):
                w.emit("_ss = 2")
                w.emit("_ss_w = _pv")
                w.emit("_ss_p = cycles - _pv")
                w.emit("_ss_end = cycles + _ss_p")
                w.emit("_ss_seen = None")
                if certified:
                    w.emit("_ss_k0 = _sk")
                    w.emit(f"_ss_v0 = {self._verify_expr()}")
                w.emit(f"_ss_bf = ({fs}{',' if self.n_procs == 1 else ''})")
                if self.ss_g_queues:
                    gs = ", ".join(f"g{q}" for q in self.ss_g_queues)
                    trail = "," if len(self.ss_g_queues) == 1 else ""
                    w.emit(f"_ss_bg = ({gs}{trail})")
                if self.stats:
                    w.emit(
                        "_ss_bs = ([*st_missing], [*st_blocked], [*st_done], "
                        "[*st_disc], [dict(_x) for _x in st_dp], "
                        "[dict(_x) for _x in st_mp])"
                    )
        w.emit("elif _ss == 2 and cycles == _ss_end:")
        with _Block(w):
            if certified:
                w.emit(f"_sk = {key}")
                w.emit(f"if _sk != _ss_k0 or {self._verify_expr()} != _ss_v0:")
                with _Block(w):
                    # False candidate (hash collision or digest coincidence):
                    # the exact state did not recur over the measured period.
                    # Resume searching — a truly periodic run re-candidates
                    # within one more period.
                    w.emit("_ss = 1")
                    w.emit("_ss_seen = {hash(_sk): cycles}")
                    w.emit("_ss_p = 0")
                    w.emit("_ss_w = 0")
                    w.emit("_ss_end = -1")
                w.emit("else:")
                with _Block(w):
                    self._steady_jump()
            else:
                self._steady_jump()

    def _steady_jump(self) -> None:
        """The analytic jump over every whole period the run may skip."""
        w = self.w
        w.emit("_ss = 0")
        deltas = ", ".join(
            f"f{p} - _ss_bf[{p}]" for p in range(self.n_procs)
        )
        w.emit(f"_df = [{deltas}]")
        w.emit(
            "_skip = _ss_skip(cycles, _ss_p, _bound, stop_mode, stop_arg, "
            "fir, _df)"
        )
        # A period with zero firings must not be skipped: the deadlock
        # counter (not part of the snapshot) keeps advancing through it.
        w.emit("if _skip > 0 and any(_df):")
        with _Block(w):
            w.emit("cycles += _skip * _ss_p")
            for p in range(self.n_procs):
                w.emit(f"if _df[{p}]:")
                with _Block(w):
                    w.emit(f"f{p} += _skip * _df[{p}]")
                    w.emit(f"p{p}.firings = f{p}")
                    if p in self.ss_jump_procs:
                        w.emit(f"p{p}_sj(_skip * _df[{p}])")
                    if self.stop_mode == STOP_TARGET:
                        w.emit(f"fir[{p}] = f{p}")
            for index, q in enumerate(self.ss_g_queues):
                w.emit(f"g{q} += _skip * (g{q} - _ss_bg[{index}])")
            if self.stats:
                w.emit(
                    "_ss_sj(_skip, _ss_bs, st_missing, st_blocked, "
                    "st_done, st_disc, st_dp, st_mp)"
                )
            w.emit("_extrap = True")
            w.emit("if cycles >= _bound:")
            with _Block(w):
                w.emit("continue  # loop-condition re-check: horizon/timeout")

    # -- shells ----------------------------------------------------------------
    def _shell(self, p: int) -> None:
        """Unrolled firing logic of one shell."""
        w = self.w
        layout = self.layout
        ports = layout.in_ports[p]
        qids = layout.in_qids[p]

        w.emit(f"# shell {p}: {layout.proc_names[p]}")
        if not self.done_ovr[p]:
            # is_done is the base-class constant False: no done guard at all.
            self._shell_body(p)
            return
        if self.relaxed:
            w.emit(f"if {self._done_expr(p)}:")
            with _Block(w):
                # Stale tokens still arrive after completion; keep discarding
                # them exactly like the reference wrapper.  An all-required
                # shell consumed every tag it ever fired on, so nothing stale
                # can be waiting and the discard scan folds away.
                scan = ports and self.req_ovr[p]
                if scan:
                    w.emit(f"_t = f{p}")
                    for port, qid in zip(ports, qids):
                        self._emit_discard(p, port, qid)
                if self.stats:
                    w.emit(f"st_done[{p}] += 1")
                elif not scan:
                    w.emit("pass")
            w.emit("else:")
            with _Block(w):
                self._shell_body(p)
        else:
            if self.stats:
                w.emit(f"if {self._done_expr(p)}:")
                with _Block(w):
                    w.emit(f"st_done[{p}] += 1")
                w.emit("else:")
            else:
                w.emit(f"if not {self._done_expr(p)}:")
            with _Block(w):
                self._shell_body(p)

    def _emit_discard(self, p: int, port: str, qid: int) -> None:
        """Drop every stale (tag below the firing counter ``_t``) head token."""
        w = self.w
        w.emit(f"while n{qid} and g{qid} < _t:")
        with _Block(w):
            w.emit(f"q{qid}_pop()")
            w.emit(f"g{qid} += 1")
            self._emit_pop_count(qid)
            if self.stats:
                w.emit(f"st_disc[{p}] += 1")
                w.emit(f"st_dp[{p}][{port!r}] += 1")

    def _shell_body(self, p: int) -> None:
        # A relaxed shell without an oracle override requires every port, so
        # it fires exactly like a strict one (and can never see a stale
        # token); its body is the plain WP1 guard.
        if self.relaxed and self.req_ovr[p]:
            self._body_wp2(p)
        elif self.stats:
            self._body_wp1_stats(p)
        else:
            self._body_wp1(p)

    def _body_wp1(self, p: int) -> None:
        """WP1 uninstrumented: the whole guard is one ``and`` chain.

        A WP1 shell pops one token per port per firing, so an arrived head
        token always carries the current tag — availability is occupancy.
        """
        w = self.w
        conds = [f"n{qid}" for qid in self.layout.in_qids[p]]
        conds += self._full_exprs(p, full=False)
        if conds:
            w.emit(f"if {' and '.join(conds)}:")
            with _Block(w):
                self._fire(p)
        else:
            self._fire(p)

    def _body_wp1_stats(self, p: int) -> None:
        """WP1 instrumented: per-port missing counters, then blocked, then fire."""
        w = self.w
        layout = self.layout
        ports = layout.in_ports[p]
        qids = layout.in_qids[p]
        blocked = " or ".join(self._full_exprs(p, full=True))

        if ports:
            w.emit("_m = False")
            for port, qid in zip(ports, qids):
                w.emit(f"if not n{qid}:")
                with _Block(w):
                    w.emit("_m = True")
                    w.emit(f"st_mp[{p}][{port!r}] += 1")
            w.emit("if _m:")
            with _Block(w):
                w.emit(f"st_missing[{p}] += 1")
            if blocked:
                w.emit(f"elif {blocked}:")
                with _Block(w):
                    w.emit(f"st_blocked[{p}] += 1")
            w.emit("else:")
            with _Block(w):
                self._fire(p)
        elif blocked:
            w.emit(f"if {blocked}:")
            with _Block(w):
                w.emit(f"st_blocked[{p}] += 1")
            w.emit("else:")
            with _Block(w):
                self._fire(p)
        else:
            self._fire(p)

    def _body_wp2(self, p: int) -> None:
        """WP2: oracle consultation, stale discard on every FIFO, then fire."""
        w = self.w
        layout = self.layout
        name = layout.proc_names[p]
        ports = layout.in_ports[p]
        qids = layout.in_qids[p]
        stats = self.stats

        w.emit(f"_t = f{p}")
        w.emit(f"_req = p{p}_req()")
        if ports:
            w.emit("if _req is None:")
            with _Block(w):
                w.emit(f"_req = r{p}")
            w.emit(f"elif not (_req <= r{p}):")
            with _Block(w):
                w.emit(f"_unknown({name!r}, _req, r{p})")
            w.emit("_m = False")
            for port, qid in zip(ports, qids):
                # The scan runs on every FIFO (never stops early) so the
                # occupancies read next cycle match the reference.
                self._emit_discard(p, port, qid)
                w.emit(f"if not n{qid}:")
                with _Block(w):
                    w.emit(f"if {port!r} in _req:")
                    with _Block(w):
                        w.emit("_m = True")
                        if stats:
                            w.emit(f"st_mp[{p}][{port!r}] += 1")
            w.emit("if _m:")
            with _Block(w):
                w.emit(f"st_missing[{p}] += 1" if stats else "pass")
            w.emit("else:")
            with _Block(w):
                self._blocked_and_fire(p)
        else:
            w.emit(f"if _req is not None and not (_req <= r{p}):")
            with _Block(w):
                w.emit(f"_unknown({name!r}, _req, r{p})")
            self._blocked_and_fire(p)

    def _blocked_and_fire(self, p: int) -> None:
        w = self.w
        if not self.layout.out_chans[p]:
            self._fire(p)
        elif self.stats:
            w.emit(f"if {' or '.join(self._full_exprs(p, full=True))}:")
            with _Block(w):
                w.emit(f"st_blocked[{p}] += 1")
            w.emit("else:")
            with _Block(w):
                self._fire(p)
        else:
            w.emit(f"if {' and '.join(self._full_exprs(p, full=False))}:")
            with _Block(w):
                self._fire(p)

    def _fire(self, p: int) -> None:
        w = self.w
        layout = self.layout
        ports = layout.in_ports[p]
        qids = layout.in_qids[p]

        if self.relaxed and self.req_ovr[p]:
            # WP2 consumes the ports whose current-tag token already arrived:
            # after the stale scan an arrived head holds exactly the current
            # tag.
            items = ", ".join(f"{port!r}: None" for port in ports)
            w.emit(f"_in = {{{items}}}")
            for port, qid in zip(ports, qids):
                w.emit(f"if n{qid}:")
                with _Block(w):
                    w.emit(f"_in[{port!r}] = q{qid}_pop()")
                    w.emit(f"g{qid} += 1")
                    self._emit_pop_count(qid)
            w.emit(f"_out = p{p}_fire(_in)")
        else:
            # WP1 consumes every port (all verified ready by the guards above).
            items = ", ".join(
                f"{port!r}: q{qid}_pop()" for port, qid in zip(ports, qids)
            )
            w.emit(f"_out = p{p}_fire({{{items}}})")
            for qid in qids:
                self._emit_pop_count(qid)
        w.emit(f"if _out.keys() != o{p}:")
        with _Block(w):
            w.emit(f"_mismatch(p{p}, _out)")
        w.emit(f"f{p} = _nt = f{p} + 1")
        if self.stop_mode == STOP_TARGET:
            w.emit(f"fir[{p}] = _nt")
        w.emit(f"p{p}.firings = _nt")
        for port, cids in layout.out_ports[p]:
            w.emit(f"_v = _out[{port!r}]")
            if self.tracing:
                w.emit("_tok = Token(value=_v, tag=_nt)")
            for cid in cids:
                qid = self.dest[cid]
                if self.tracing:
                    w.emit(f"_e[{cid}] = _tok")
                if cid in self.has_rs:
                    # Into relay station 0: the value joins the FIFO's deque
                    # behind everything its counter has admitted.
                    w.emit(f"q{qid}_ap(_v)")
                    w.emit(f"c{cid} += 1")
                elif self._deferred(p, cid):
                    w.emit(f"d{cid} = _v")
                else:
                    self._emit_push(qid, "_v")
        w.emit("fired_any = True")


def generate_run_source(
    model: ElaboratedModel,
    instruments: InstrumentSet,
    stop_mode: int = STOP_PROCESS,
    steady: bool = False,
    horizon: bool = False,
) -> str:
    """Emit the source of the specialized run function for *model*."""
    return _Generator(model, instruments, stop_mode, steady, horizon).generate()


def _base_namespace(model: ElaboratedModel) -> dict:
    """Layout-level constants the generated code closes over."""
    layout = model.layout
    namespace = {
        "__builtins__": __builtins__,
        "deque": deque,
        "_dd": defaultdict,
        "Token": Token,
        "VOID": VOID,
        "DeadlockError": DeadlockError,
        "SimulationError": SimulationError,
        "_mismatch": _raise_output_mismatch,
        "_unknown": _raise_unknown_ports,
        "_ss_skip": periods_to_skip,
        "_ss_sj": stats_jump,
        "CHAN_INIT": list(layout.chan_initial),
        "_NP": object(),  # unique "no pending token" sentinel
    }
    for p, process in enumerate(layout.processes):
        namespace[f"OUT{p}"] = frozenset(process.output_ports)
        namespace[f"PORTS{p}"] = frozenset(layout.in_ports[p])
    return namespace


def _cached_code(source: str) -> Tuple[str, object]:
    """``(source, code)`` from the process-wide LRU, compiling on a miss.

    The returned source is the cached string itself, so every layout's
    function shares one copy of it.
    """
    with _CODE_CACHE_LOCK:
        entry = _CODE_CACHE.get(source)
        if entry is not None:
            _CODE_CACHE.move_to_end(source)
            return entry
    entry = (source, compile(source, "<lid-codegen>", "exec"))
    with _CODE_CACHE_LOCK:
        _CODE_CACHE[source] = entry
        while len(_CODE_CACHE) > CODE_CACHE_SIZE:
            _CODE_CACHE.popitem(last=False)
    return entry


def cached_run_fn(model: ElaboratedModel, key: Tuple) -> Optional[Callable]:
    """The layout's run function for signature *key*, if already built."""
    cache = getattr(model.layout, _CACHE_ATTR, None)
    return cache.get(key) if cache is not None else None


def compiled_run_fn(
    model: ElaboratedModel,
    instruments: InstrumentSet,
    stop_mode: int = STOP_PROCESS,
    steady: bool = False,
    horizon: bool = False,
) -> Callable:
    """The compiled run function for *model*, generated and cached on demand.

    The function cache lives on the layout (one per :class:`Elaborator`,
    shared by every binding), keyed by :func:`model_signature`.  A miss
    generates the source and takes its code object from the process-wide
    LRU, so only a source never seen before (or evicted) is compiled.
    """
    layout = model.layout
    key = model_signature(model, instruments, stop_mode, steady, horizon)
    fn = cached_run_fn(model, key)
    if fn is None:
        source, code = _cached_code(
            generate_run_source(model, instruments, stop_mode, steady, horizon)
        )
        namespace = _base_namespace(model)
        exec(code, namespace)
        fn = namespace[ENTRY_POINT]
        fn.__lid_source__ = source  # kept for tests and debugging
        cache = getattr(layout, _CACHE_ATTR, None)
        if cache is None:
            cache = {}
            setattr(layout, _CACHE_ATTR, cache)
        cache[key] = fn
    return fn
