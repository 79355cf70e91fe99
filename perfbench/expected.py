"""Expected rows: what the reference kernel returns for each submission.

Every streamed row is compared with the reference kernel's
``BatchResult.to_dict()`` for the same spec, configuration and controls.
The reference rows are obtained through the daemon's own submission path
(an in-process :class:`~repro.server.ReproServer` given the same body with
``"kernel": "reference"``), so spec materialisation, control defaults and
configuration expansion cannot drift from what the daemon under test does.

Compared fields are the simulated outcome (:data:`COMPARED`).  Two kinds of
field are left out, because they describe how a row was computed rather
than what it is: ``period``/``warmup_cycles``/``extrapolated`` (the
reference kernel has no steady-state detector, so it never extrapolates)
and ``attempts`` (a pool retry changes it, not the row).

Rows for the seed pools of :mod:`perfbench.specs` are stored in
``perfbench/expected/*.json`` (written by ``perfbench/make_expected.py``);
any other body is computed once, outside every timed region.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

COMPARED = (
    "label", "cycles", "firings", "halted", "wrapper_kind", "error",
    "rs_total",
)
STORE = Path(__file__).resolve().parent / "expected"


def body_key(body: Dict[str, Any]) -> str:
    """Canonical identity of a submission body (kernel excluded)."""
    return json.dumps(
        {k: v for k, v in body.items() if k != "kernel"}, sort_keys=True
    )


def project(result: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    if result is None:
        return None
    return {name: result.get(name) for name in COMPARED}


def reference_rows(
    bodies: Iterable[Dict[str, Any]],
) -> Dict[str, List[Dict[str, Any]]]:
    """Evaluate *bodies* on the reference kernel (rows in index order)."""
    from repro.server import ReproServer, ServerClient

    out: Dict[str, List[Dict[str, Any]]] = {}
    with ReproServer("127.0.0.1", 0) as server:
        client = ServerClient(*server.address, timeout=3600.0)
        for body in bodies:
            reply = client.submit({**body, "kernel": "reference"})
            rows = client.fetch(reply["job_set_id"])["rows"]
            rows.sort(key=lambda event: event["index"])
            for event in rows:
                if event["status"] != "done" or event["result"] is None:
                    raise RuntimeError(
                        f"reference row failed: {event.get('error')}"
                    )
            out[body_key(body)] = [project(event["result"]) for event in rows]
    return out


class Expected:
    """Expected rows by body, from the store plus whatever was computed."""

    def __init__(self, store: Path = STORE) -> None:
        self.rows: Dict[str, List[Dict[str, Any]]] = {}
        if store.is_dir():
            for path in sorted(store.glob("*.json")):
                self.rows.update(json.loads(path.read_text()))

    def ensure(self, bodies: Iterable[Dict[str, Any]]) -> int:
        """Compute the rows of every body not yet known; returns how many."""
        missing: Dict[str, Dict[str, Any]] = {}
        for body in bodies:
            key = body_key(body)
            if key not in self.rows:
                missing[key] = body
        if missing:
            self.rows.update(reference_rows(missing.values()))
        return len(missing)

    def corrupt(self, bodies: List[Dict[str, Any]]) -> None:
        """Alter the first expected row of *bodies* (self-test only)."""
        self.ensure(bodies)
        key = body_key(bodies[0])
        first = dict(self.rows[key][0])
        first["cycles"] += 1
        self.rows[key] = [first] + self.rows[key][1:]

    def verify(
        self,
        bodies: List[Dict[str, Any]],
        received: List[Optional[List[Dict[str, Any]]]],
    ) -> Tuple[int, int]:
        """Rows attempted and failed over a sweep's submissions; a body
        whose POST failed (events None) loses all of its rows."""
        attempted = failed = 0
        for body, events in zip(bodies, received):
            expected = len(self.rows[body_key(body)])
            attempted += expected
            failed += expected if events is None else (
                self.mismatches(body, events)
            )
        return attempted, failed

    def mismatches(
        self, body: Dict[str, Any], events: List[Dict[str, Any]]
    ) -> int:
        """Rows of one submission that are wrong, failed or missing."""
        expected = self.rows[body_key(body)]
        bad = 0
        seen = set()
        for event in events:
            index = event.get("index")
            if not isinstance(index, int) or not 0 <= index < len(expected):
                bad += 1
                continue
            if index in seen:
                bad += 1
                continue
            seen.add(index)
            if (
                event.get("status") != "done"
                or event.get("error") is not None
                or project(event.get("result")) != expected[index]
            ):
                bad += 1
        return bad + len(expected) - len(seen)
