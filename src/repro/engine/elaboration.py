"""Elaboration: compile a netlist + RS configuration into a flat runtime model.

The simulation stack is layered (see DESIGN.md):

1. **elaboration** (this module) — resolve every name exactly once.  A
   :class:`NetlistLayout` assigns dense integer indices to processes, input
   ports, channels and storage elements (shell FIFOs first, then relay
   stations), and precomputes the per-process output structure.  Binding a
   relay-station assignment to a layout yields an :class:`ElaboratedModel`:
   everything a kernel needs to simulate without a single dict lookup by name
   or per-cycle ``sorted()``.
2. **kernels** (:mod:`repro.engine.kernel`) — execute an elaborated model.
3. **instrumentation** (:mod:`repro.engine.instrumentation`) — opt-in
   observer passes over a run.

The layout is configuration-independent: a :class:`Elaborator` computes it
once per netlist and can then bind many relay-station assignments cheaply,
which is what :class:`repro.engine.batch.BatchRunner` exploits when sweeping
configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.config import RSConfiguration
from ..core.exceptions import SimulationError
from ..core.netlist import Netlist
from ..core.process import Process
from ..core.relay_station import RelayStation
from ..core.shell import DEFAULT_QUEUE_CAPACITY


def resolve_rs_counts(
    netlist: Netlist,
    rs_counts: Optional[Mapping[str, int]] = None,
    configuration: Optional[RSConfiguration] = None,
) -> Tuple[Dict[str, int], str]:
    """Normalise the two ways of specifying relay stations to per-channel counts.

    Exactly one of *rs_counts* (per-channel) or *configuration* (per-link) may
    be given; omitting both means zero relay stations everywhere.  Returns the
    per-channel mapping (covering every channel) and a label.
    """
    if rs_counts is not None and configuration is not None:
        raise SimulationError("pass either rs_counts or configuration, not both")
    if configuration is not None:
        counts = configuration.per_channel(netlist)
        label = configuration.label
    else:
        given = dict(rs_counts or {})
        unknown = [name for name in given if name not in netlist.channels]
        if unknown:
            raise SimulationError(
                f"rs_counts references unknown channels {sorted(unknown)}"
            )
        counts = {name: int(given.get(name, 0)) for name in netlist.channels}
        label = "per-channel"
    negative = [name for name, count in counts.items() if count < 0]
    if negative:
        raise SimulationError(f"negative relay-station counts for {negative}")
    return counts, label


@dataclass(frozen=True)
class LayoutTopology:
    """SCC-aware graph profile of a layout, in the layout's integer indices.

    The index layouts themselves are shape-free — every kernel addresses
    processes, ports and storage elements through dense integers that never
    assume a linear stage order.  This profile captures the *graph* facts a
    consumer may want on top: a topological order over the SCC condensation
    (processes of one SCC stay contiguous, condensation components in
    dependency order), per-process SCC membership and pipeline level, and
    the channels that close cycles.  Kernels use it for diagnostics (a
    deadlock can only be sustained by a cycle), the CLI renders it, and
    eligibility decisions quote it instead of guessing from shape names.
    """

    #: Process indices in SCC-condensation topological order.
    order: Tuple[int, ...]
    #: Per process: id of its SCC (ids numbered in condensation topo order).
    scc_of: Tuple[int, ...]
    #: Per SCC id: member count.
    scc_sizes: Tuple[int, ...]
    is_dag: bool
    #: Per process: longest-path depth of its SCC in the condensation.
    level: Tuple[int, ...]
    #: Channel ids whose endpoints share a non-trivial SCC (loop-closing
    #: edges; self-loops count).
    cyclic_chan_ids: Tuple[int, ...]

    def deadlock_hint(self, chan_names: Sequence[str]) -> str:
        """Diagnostic suffix naming the only edges that can sustain a deadlock."""
        if not self.cyclic_chan_ids:
            return ""
        names = ", ".join(chan_names[cid] for cid in self.cyclic_chan_ids[:8])
        more = len(self.cyclic_chan_ids) - 8
        if more > 0:
            names += f" (+{more} more)"
        return f"; cycle-closing channels to inspect: {names}"


@dataclass
class NetlistLayout:
    """Configuration-independent integer-indexed view of a netlist.

    Storage-element ids: shell input FIFOs come first (process order, then
    port order), relay stations are appended per bound configuration starting
    at :attr:`n_shell_queues`.
    """

    netlist: Netlist
    #: Processes in netlist iteration order (the order shells fire in).
    proc_names: List[str]
    processes: List[Process]
    #: Per process: input port names, in declaration order.
    in_ports: List[Tuple[str, ...]]
    #: Per process: queue id of each input port FIFO (parallel to in_ports).
    in_qids: List[List[int]]
    #: Names of the shell FIFOs ("proc.port"), indexed by queue id.
    shell_queue_names: List[str]
    n_shell_queues: int
    #: Channels in netlist iteration order.
    chan_names: List[str]
    #: Initial token value of each channel.
    chan_initial: List[Any]
    #: Destination FIFO queue id of each channel.
    chan_dest_qid: List[int]
    #: Per process: (output port, [channel ids]) for every *connected* port.
    out_ports: List[List[Tuple[str, List[int]]]]
    #: Per process: channel ids of every output channel (flattened).
    out_chans: List[List[int]]

    def flat_inputs(self) -> List[Tuple[int, int, str]]:
        """All (process index, queue id, port name) triples, in process order.

        Ports of one process are contiguous, so a consumer can reduce over
        per-process segments (``np.logical_or.reduceat`` in the lockstep
        kernel) without re-deriving the grouping.
        """
        return [
            (p, qid, port)
            for p, (ports, qids) in enumerate(zip(self.in_ports, self.in_qids))
            for port, qid in zip(ports, qids)
        ]

    def flat_outputs(self) -> List[Tuple[int, int]]:
        """All (process index, channel id) output pairs, in process order.

        Channels of one process are contiguous (same segment property as
        :meth:`flat_inputs`, used for back-pressure reductions).
        """
        return [(p, cid) for p, chans in enumerate(self.out_chans) for cid in chans]

    def topology(self) -> LayoutTopology:
        """The layout's :class:`LayoutTopology`, computed once and cached."""
        cached = getattr(self, "_topology_cache", None)
        if cached is not None:
            return cached
        import networkx as nx

        proc_index = {name: i for i, name in enumerate(self.proc_names)}
        graph = nx.DiGraph()
        graph.add_nodes_from(range(len(self.proc_names)))
        edges = []
        for cid, cname in enumerate(self.chan_names):
            chan = self.netlist.channels[cname]
            edges.append((proc_index[chan.source], proc_index[chan.dest], cid))
        graph.add_edges_from((src, dst) for src, dst, _ in edges)

        condensation = nx.condensation(graph)
        comp_order = list(nx.topological_sort(condensation))
        scc_id = [0] * len(self.proc_names)
        scc_sizes: List[int] = []
        order: List[int] = []
        for new_id, comp in enumerate(comp_order):
            members = sorted(condensation.nodes[comp]["members"])
            scc_sizes.append(len(members))
            for proc in members:
                scc_id[proc] = new_id
            order.extend(members)

        comp_level = {comp: 0 for comp in comp_order}
        for comp in comp_order:
            for succ in condensation.successors(comp):
                comp_level[succ] = max(comp_level[succ], comp_level[comp] + 1)
        renumber = {comp: new_id for new_id, comp in enumerate(comp_order)}
        level_of_scc = [0] * len(comp_order)
        for comp, depth in comp_level.items():
            level_of_scc[renumber[comp]] = depth

        cyclic = tuple(
            cid
            for src, dst, cid in edges
            if scc_id[src] == scc_id[dst]
            and (scc_sizes[scc_id[src]] > 1 or src == dst)
        )
        profile = LayoutTopology(
            order=tuple(order),
            scc_of=tuple(scc_id),
            scc_sizes=tuple(scc_sizes),
            is_dag=all(size == 1 for size in scc_sizes) and not any(
                src == dst for src, dst, _ in edges
            ),
            level=tuple(level_of_scc[scc_id[p]] for p in range(len(self.proc_names))),
            cyclic_chan_ids=cyclic,
        )
        self._topology_cache = profile
        return profile

    @classmethod
    def build(cls, netlist: Netlist) -> "NetlistLayout":
        proc_names = list(netlist.processes)
        processes = [netlist.processes[name] for name in proc_names]
        proc_index = {name: i for i, name in enumerate(proc_names)}

        in_ports: List[Tuple[str, ...]] = []
        in_qids: List[List[int]] = []
        shell_queue_names: List[str] = []
        port_qid: Dict[Tuple[str, str], int] = {}
        for name, process in zip(proc_names, processes):
            ports = tuple(process.input_ports)
            qids = []
            for port in ports:
                qid = len(shell_queue_names)
                shell_queue_names.append(f"{name}.{port}")
                port_qid[(name, port)] = qid
                qids.append(qid)
            in_ports.append(ports)
            in_qids.append(qids)

        chan_names: List[str] = []
        chan_initial: List[Any] = []
        chan_dest_qid: List[int] = []
        chan_index: Dict[str, int] = {}
        for cname, chan in netlist.channels.items():
            chan_index[cname] = len(chan_names)
            chan_names.append(cname)
            chan_initial.append(chan.initial)
            chan_dest_qid.append(port_qid[(chan.dest, chan.dest_port)])

        out_ports: List[List[Tuple[str, List[int]]]] = []
        out_chans: List[List[int]] = []
        for name in proc_names:
            per_port = [
                (port, [chan_index[chan.name] for chan in chans])
                for port, chans in netlist.output_channels(name).items()
            ]
            out_ports.append(per_port)
            out_chans.append([cid for _, cids in per_port for cid in cids])

        return cls(
            netlist=netlist,
            proc_names=proc_names,
            processes=processes,
            in_ports=in_ports,
            in_qids=in_qids,
            shell_queue_names=shell_queue_names,
            n_shell_queues=len(shell_queue_names),
            chan_names=chan_names,
            chan_initial=chan_initial,
            chan_dest_qid=chan_dest_qid,
            out_ports=out_ports,
            out_chans=out_chans,
        )


@dataclass
class ElaboratedModel:
    """A layout bound to one relay-station assignment and one wrapper flavour.

    Immutable description consumed by the kernels; kernels allocate their own
    mutable run state, so one model can back many successive runs.  Runs are
    NOT thread-safe among themselves: the layout shares the stateful
    :class:`~repro.core.process.Process` objects of the netlist, which every
    run resets and advances.  Concurrent evaluation belongs in
    :meth:`repro.engine.batch.BatchRunner.run_many`, which isolates runs in
    forked worker processes.
    """

    layout: NetlistLayout
    rs_counts: Dict[str, int]
    configuration_label: str
    relaxed: bool
    queue_capacity: int
    rs_capacity: int
    #: Capacity of every storage element, indexed by queue id.
    queue_caps: List[int]
    #: Name of every storage element, indexed by queue id.
    queue_names: List[str]
    #: Per channel: relay-station qids (source → dest) followed by the dest FIFO.
    chan_chain: List[List[int]]

    @property
    def netlist(self) -> Netlist:
        return self.layout.netlist

    @property
    def wrapper_kind(self) -> str:
        return "WP2" if self.relaxed else "WP1"


class Elaborator:
    """Builds a layout once and binds relay-station assignments to it."""

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self.layout = NetlistLayout.build(netlist)

    def bind(
        self,
        rs_counts: Optional[Mapping[str, int]] = None,
        configuration: Optional[RSConfiguration] = None,
        relaxed: bool = False,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        rs_capacity: int = RelayStation.RS_CAPACITY,
        label: Optional[str] = None,
    ) -> ElaboratedModel:
        """Bind one relay-station assignment, producing an executable model."""
        counts, resolved_label = resolve_rs_counts(
            self.netlist, rs_counts=rs_counts, configuration=configuration
        )
        layout = self.layout
        queue_caps = [queue_capacity] * layout.n_shell_queues
        queue_names = list(layout.shell_queue_names)
        chan_chain: List[List[int]] = []
        for cid, cname in enumerate(layout.chan_names):
            chain: List[int] = []
            for index in range(counts[cname]):
                chain.append(len(queue_caps))
                queue_caps.append(rs_capacity)
                queue_names.append(f"{cname}.rs{index}")
            chain.append(layout.chan_dest_qid[cid])
            chan_chain.append(chain)
        return ElaboratedModel(
            layout=layout,
            rs_counts=counts,
            configuration_label=label if label is not None else resolved_label,
            relaxed=relaxed,
            queue_capacity=queue_capacity,
            rs_capacity=rs_capacity,
            queue_caps=queue_caps,
            queue_names=queue_names,
            chan_chain=chan_chain,
        )


def elaborate(
    netlist: Netlist,
    rs_counts: Optional[Mapping[str, int]] = None,
    configuration: Optional[RSConfiguration] = None,
    relaxed: bool = False,
    queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
    rs_capacity: int = RelayStation.RS_CAPACITY,
) -> ElaboratedModel:
    """One-shot elaboration (layout + binding) of a netlist."""
    return Elaborator(netlist).bind(
        rs_counts=rs_counts,
        configuration=configuration,
        relaxed=relaxed,
        queue_capacity=queue_capacity,
        rs_capacity=rs_capacity,
    )
