"""The reference kernel: the original object-based simulation machinery.

This is the executable specification of the latency-insensitive protocol:
:class:`~repro.core.shell.Shell` objects wrap the processes,
:class:`~repro.core.relay_station.RelayStation` chains pipeline the channels
and every event is a real :class:`~repro.core.tokens.Token`.  The compiled
kernel must match it cycle-for-cycle (see ``tests/test_engine.py``); keep this code
boring and obviously correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from ..core.channel import Channel
from ..core.exceptions import DeadlockError, SimulationError
from ..core.relay_station import RelayStation, TokenQueue, build_relay_chain
from ..core.shell import Shell, make_shell
from ..core.tokens import Token, VOID
from ..core.traces import SystemTrace
from .elaboration import ElaboratedModel
from .instrumentation import InstrumentSet
from .kernel import RunControls, SimKernel
from .result import LidResult


@dataclass
class ChannelPipeline:
    """Runtime image of one channel: its relay stations and destination FIFO."""

    channel: Channel
    relay_stations: List[RelayStation]
    dest_queue: TokenQueue

    @property
    def elements(self) -> List[TokenQueue]:
        """Storage elements ordered from source to destination."""
        return [*self.relay_stations, self.dest_queue]

    @property
    def first_element(self) -> TokenQueue:
        """The element a newly produced token enters (defines source back-pressure)."""
        return self.relay_stations[0] if self.relay_stations else self.dest_queue

    def in_flight(self) -> int:
        """Tokens currently stored in the relay stations (not yet delivered)."""
        return sum(rs.occupancy for rs in self.relay_stations)


class ReferenceKernel(SimKernel):
    """Object-based kernel: builds shells and relay chains, runs them."""

    name = "reference"

    def __init__(self, model: ElaboratedModel) -> None:
        super().__init__(model)
        netlist = model.netlist
        self.shells: Dict[str, Shell] = {
            name: make_shell(
                process, model.relaxed, queue_capacity=model.queue_capacity
            )
            for name, process in netlist.processes.items()
        }
        self.pipelines: Dict[str, ChannelPipeline] = {}
        for name, chan in netlist.channels.items():
            dest_queue = self.shells[chan.dest].queues[chan.dest_port]
            relay_stations = build_relay_chain(
                name, model.rs_counts.get(name, 0), capacity=model.rs_capacity
            )
            self.pipelines[name] = ChannelPipeline(
                channel=chan, relay_stations=relay_stations, dest_queue=dest_queue
            )
        # Output channel lists per process, resolved once.
        self._outputs_of: Dict[str, List[ChannelPipeline]] = {
            name: [
                self.pipelines[chan.name]
                for chans in netlist.output_channels(name).values()
                for chan in chans
            ]
            for name in netlist.processes
        }
        self._output_port_map: Dict[str, Dict[str, List[ChannelPipeline]]] = {
            name: {
                port: [self.pipelines[chan.name] for chan in chans]
                for port, chans in netlist.output_channels(name).items()
            }
            for name in netlist.processes
        }

    def reset(self) -> None:
        """Reset shells, relay stations and re-inject the initial tokens."""
        for shell in self.shells.values():
            shell.reset()
        for pipeline in self.pipelines.values():
            for rs in pipeline.relay_stations:
                rs.reset()
        # Initial channel values live in the destination FIFOs with tag 0,
        # mirroring the reset value of the producer's output register.
        for pipeline in self.pipelines.values():
            pipeline.dest_queue.push(Token(value=pipeline.channel.initial, tag=0))

    def run(self, controls: RunControls, instruments: InstrumentSet) -> LidResult:
        model = self.model
        netlist = model.netlist
        controls.validate(model)
        self.reset()

        stop_process = controls.stop_process
        target_firings = controls.target_firings
        on_cycle = controls.on_cycle

        trace = SystemTrace(netlist.channels)
        cycles = 0
        idle_streak = 0
        halted = False
        drain_remaining = None

        all_queues: List[TokenQueue] = []
        for shell in self.shells.values():
            all_queues.extend(shell.queues.values())
        for pipeline in self.pipelines.values():
            all_queues.extend(pipeline.relay_stations)

        horizon = controls.horizon
        bound = controls.loop_bound()
        while cycles < bound:
            # Phase 1: latch occupancies (registered back-pressure).
            for queue in all_queues:
                queue.latch()
            for shell in self.shells.values():
                shell.begin_cycle()

            # Phase 2: relay-station forwarding decisions (source -> dest order
            # per channel; decisions only use start-of-cycle state).
            forwards: List[Tuple[ChannelPipeline, int]] = []
            for pipeline in self.pipelines.values():
                elements = pipeline.elements
                for index, rs in enumerate(pipeline.relay_stations):
                    downstream = elements[index + 1]
                    if rs.has_data() and not downstream.stop():
                        forwards.append((pipeline, index))

            # Phase 3: shell firing decisions and execution.
            fired: Dict[str, bool] = {}
            emissions: Dict[str, Any] = {}
            launches: List[Tuple[ChannelPipeline, Token]] = []
            for name, shell in self.shells.items():
                outputs_blocked = any(
                    pipeline.first_element.stop() for pipeline in self._outputs_of[name]
                )
                plan = shell.plan(outputs_blocked)
                produced = shell.execute(plan)
                fired[name] = produced is not None
                port_map = self._output_port_map[name]
                if produced is None:
                    for pipelines in port_map.values():
                        for pipeline in pipelines:
                            emissions[pipeline.channel.name] = VOID
                else:
                    for port, token in produced.items():
                        for pipeline in port_map.get(port, []):
                            emissions[pipeline.channel.name] = token
                            launches.append((pipeline, token))

            # Phase 4: commit token movement.  Relay-station moves are applied
            # from the destination side backwards so a chain never transiently
            # exceeds its capacity; producer launches are applied last.
            for pipeline, index in sorted(
                forwards, key=lambda item: item[1], reverse=True
            ):
                elements = pipeline.elements
                token = pipeline.relay_stations[index].pop()
                elements[index + 1].push(token)
            for pipeline, token in launches:
                pipeline.first_element.push(token)

            if instruments.trace:
                trace.record_cycle(emissions)
            cycles += 1

            if on_cycle is not None:
                on_cycle(cycles, fired)

            if any(fired.values()):
                idle_streak = 0
            else:
                idle_streak += 1
                if idle_streak >= controls.deadlock_limit:
                    hint = model.layout.topology().deadlock_hint(
                        model.layout.chan_names
                    )
                    raise DeadlockError(
                        f"no process fired for {idle_streak} consecutive cycles "
                        f"(cycle {cycles}, configuration {model.configuration_label!r})"
                        f"{hint}"
                    )

            if drain_remaining is None and self._stop_condition(
                stop_process, target_firings
            ):
                halted = True
                drain_remaining = controls.extra_cycles
            if drain_remaining is not None:
                if drain_remaining == 0:
                    break
                drain_remaining -= 1
        else:
            if horizon is not None and cycles >= horizon:
                halted = True  # reaching the horizon is a normal halt
            else:
                raise SimulationError(
                    f"simulation did not terminate within {controls.max_cycles} "
                    f"cycles (configuration {model.configuration_label!r})"
                )

        firings = {
            name: process.firings for name, process in netlist.processes.items()
        }
        shell_stats = (
            {name: shell.stats for name, shell in self.shells.items()}
            if instruments.shell_stats
            else {}
        )
        max_occupancy = (
            {queue.name: queue.max_occupancy for queue in all_queues}
            if instruments.occupancy
            else {}
        )
        return LidResult(
            cycles=cycles,
            firings=firings,
            trace=trace,
            halted=halted,
            wrapper_kind=model.wrapper_kind,
            configuration_label=model.configuration_label,
            rs_counts=dict(model.rs_counts),
            shell_stats=shell_stats,
            max_queue_occupancy=max_occupancy,
        )

    def _stop_condition(self, stop_process, target_firings) -> bool:
        netlist = self.model.netlist
        if target_firings is not None:
            return all(
                netlist.process(name).firings >= count
                for name, count in target_firings.items()
            )
        if stop_process is not None:
            return netlist.process(stop_process).is_done()
        return any(process.is_done() for process in netlist)
