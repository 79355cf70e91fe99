"""The load generator: a closed-loop client driving sweeps over HTTP.

A client submits the bodies of a sweep one after another
(``POST /v1/jobs``).  One reader thread per sweep follows the accepted job
sets' SSE streams, in submission order, each to its ``end`` sentinel, and
stamps every row's arrival relative to the sweep's first submit.  It starts
reading as soon as the first submission is accepted.  Reading in order
delays no stamp: the daemon completes one tenant's jobs in submission order
(its stride priorities rise monotonically).  The client sends its next
sweep only after the previous one completed (closed loop), so a slower
daemon receives proportionally less load.

Each sweep's rows are checked by the caller's *verify* once the sweep's
clock has stopped; only the counts are kept, so memory stays flat however
many sweeps a run makes.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.server import ServerClient, ServerError

#: ``verify(bodies, events per body)`` → (rows attempted, rows failed);
#: a body whose POST failed has None for its events.
Verify = Callable[
    [List[Dict[str, Any]], List[Optional[List[Dict[str, Any]]]]],
    Tuple[int, int],
]


@dataclass
class Sweep:
    """What one sweep cost, as its client saw it."""

    bodies: List[Dict[str, Any]]
    #: Seconds from the sweep's first submit to each row's arrival.
    arrivals: List[float] = field(default_factory=list)
    #: Seconds each ``POST /v1/jobs`` round trip took.
    submit_s: List[float] = field(default_factory=list)
    #: Layouts the daemon resolved each submission to.
    layouts: List[str] = field(default_factory=list)
    #: Seconds from the first submit to the last stream's ``end``.
    total_s: float = 0.0
    http_errors: int = 0
    attempted: int = 0
    failed: int = 0


def run_sweep(
    client: ServerClient, bodies: List[Dict[str, Any]], verify: Verify
) -> Sweep:
    sweep = Sweep(bodies)
    received: List[Optional[List[Dict[str, Any]]]] = [None] * len(bodies)
    accepted: "queue.Queue[Optional[Tuple[int, str]]]" = queue.Queue()
    #: Appended to by the reader only; merged after it has joined.
    stream_errors: List[ServerError] = []
    crashes: List[BaseException] = []
    began = time.perf_counter()

    def follow() -> None:
        while True:
            item = accepted.get()
            if item is None:
                return
            index, job_set_id = item
            events: List[Dict[str, Any]] = []
            received[index] = events
            try:
                for event in client.stream(job_set_id):
                    sweep.arrivals.append(time.perf_counter() - began)
                    events.append(event)
            except ServerError as exc:
                stream_errors.append(exc)
            except BaseException as exc:  # re-raised by the sweep below
                crashes.append(exc)
                return

    reader = threading.Thread(target=follow)
    reader.start()
    try:
        for index, body in enumerate(bodies):
            sent = time.perf_counter()
            try:
                reply = client.submit(body)
            except ServerError:
                sweep.http_errors += 1
                reply = None
            sweep.submit_s.append(time.perf_counter() - sent)
            if reply is not None:
                sweep.layouts.extend(reply["layouts"])
                accepted.put((index, reply["job_set_id"]))
    finally:
        accepted.put(None)
        reader.join()
    sweep.total_s = time.perf_counter() - began
    if crashes:
        raise crashes[0]
    sweep.http_errors += len(stream_errors)
    sweep.attempted, sweep.failed = verify(bodies, received)
    return sweep


@dataclass
class Phase:
    """Every sweep of one measured phase, and the phase's wall-clock."""

    sweeps: List[Sweep]
    wall_s: float

    @property
    def rows(self) -> int:
        return sum(len(sweep.arrivals) for sweep in self.sweeps)


def run_phase(
    start_server: Callable[[], Any],
    next_bodies: Callable[[int], List[Dict[str, Any]]],
    verify: Verify,
    *,
    seconds: float,
    min_rows: int,
    sweeps_per_server: int,
    after_first_sweep: Optional[Callable[[Any], None]] = None,
    before_close: Optional[Callable[[Any], None]] = None,
) -> Phase:
    """One client's sweeps until *seconds* have passed and at least
    *min_rows* rows arrived; sweep *k* submits ``next_bodies(k)``.

    ``start_server()`` returns a started server with ``address`` and
    ``close()``.  Each server serves at most *sweeps_per_server* sweeps and
    is then replaced by a fresh one.  Server starts and stops count
    towards *seconds* but not towards the phase's wall-clock.
    *after_first_sweep* and *before_close* are called with each server."""
    sweeps: List[Sweep] = []
    rows = 0
    wall_s = 0.0
    began = time.perf_counter()

    def more() -> bool:
        return time.perf_counter() - began < seconds or rows < min_rows

    while more():
        server = start_server()
        try:
            client = ServerClient(*server.address, timeout=600.0)
            served = time.perf_counter()
            for n in range(sweeps_per_server):
                if n and not more():
                    break
                sweep = run_sweep(client, next_bodies(len(sweeps)), verify)
                sweeps.append(sweep)
                rows += len(sweep.arrivals)
                if n == 0 and after_first_sweep is not None:
                    after_first_sweep(server)
            wall_s += time.perf_counter() - served
            if before_close is not None:
                before_close(server)
        finally:
            server.close()
    return Phase(sweeps, wall_s)
