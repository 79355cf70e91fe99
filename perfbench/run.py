#!/usr/bin/env python3
"""End-to-end benchmark of the sweep-serving stack.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` drives the real daemon (``python -m repro serve`` as a child
process, default kernel, private ``--cache-dir``) from this process and
prints the end-to-end metrics; ``--trace 1`` hosts the daemon's
:class:`~repro.server.ReproServer` in this process, runs the same sweeps
first untraced and then with every layer wrapped (:mod:`perfbench.layers`),
and prints the per-layer metrics.  Every streamed row is compared with the
reference kernel's row (:mod:`perfbench.expected`).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
stamps the run (source revision, mode, ``nproc``, Python, default kernel,
start method, seed) and the counts behind the metrics.  ``--toy`` shrinks
every workload for the self-test; ``--corrupt-expected`` alters one
expected row, which must then be reported as a mismatch;
``--data-seeds FIRST:COUNT`` runs on data seeds outside the stored pool.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (daemon cache dirs, stderr, spans).
WORK = ROOT / ".perfbench"

#: Daemon pool size (``--workers``) per workload.
WORKLOADS = {"table1_cold": 1, "table1_cold_pool": 2, "zoo_horizon": 1}
#: Daemon starts per run whose median is ``setup_s``.
SETUP_REPEATS = 3
#: Rows a measured run collects at least, so that at least ten row
#: latencies lie beyond the 90th percentile.
MIN_ROWS = 110


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile (no interpolation between samples)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def _metric(value: float, unit: str):
    return {"value": value, "unit": unit}


def _source_revision() -> str:
    """The git commit, or a digest of ``src/`` outside a git checkout."""
    import hashlib
    import subprocess

    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
        if done.returncode == 0:
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def _stamp(args) -> dict:
    import platform

    from repro.engine import resolve_kernel_name
    from repro.engine.batch import _default_start_method

    return {
        "revision": _source_revision(),
        "mode": "traced" if args.trace else "untraced",
        "workload": args.workload,
        "seed": args.seed,
        "data_seeds": args.data_seeds or "stored pool",
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "default_kernel": resolve_kernel_name(None),
        "start_method": _default_start_method(),
        "toy": args.toy,
    }


# ---------------------------------------------------------------------------
# Shared bookkeeping
# ---------------------------------------------------------------------------


class Rows:
    """Rows attempted and failed over every sweep of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, sweeps) -> None:
        for sweep in sweeps:
            self.attempted += sweep.attempted
            self.failed += sweep.failed


class Workload:
    """What a run submits and to which daemon: the pool size (``--workers``),
    the sweep bodies by index, and how many sweeps one server serves."""

    def __init__(self, args, sizes, expected) -> None:
        from perfbench import specs

        self.workers = WORKLOADS[args.workload]
        pool = (specs.parse_pool(args.data_seeds) if args.data_seeds
                else specs.default_pool(args.workload))
        # One pass over the pool per server, so no sweep hits the cache.
        self.sweeps_per_server = len(pool)
        self.bodies = lambda k: specs.sweep_for(
            args.workload, pool, args.seed, k, sizes
        )
        # Every expected row is known before timing starts.
        for k in range(len(pool)):
            expected.ensure(self.bodies(k))


def _end_to_end(sweeps, wall_s: float, setup_s, rss_mb, rows: Rows):
    arrivals = [t for sweep in sweeps for t in sweep.arrivals]
    p90 = _quantile(arrivals, 0.9)
    firsts = [sweep.arrivals[0] for sweep in sweeps if sweep.arrivals]
    metrics = {
        "rows_per_s": _metric(len(arrivals) / wall_s, "1/s"),
        "sweep_p50_ms": _metric(
            statistics.median(s.total_s for s in sweeps) * 1e3, "ms"
        ),
        "row_latency_p50_ms": _metric(_quantile(arrivals, 0.5) * 1e3, "ms"),
        "row_latency_p90_ms": _metric(p90 * 1e3, "ms"),
        "row_ok_rate": _metric(
            1.0 - rows.failed / max(rows.attempted, 1), "ratio"
        ),
        "setup_s": _metric(statistics.median(setup_s), "s"),
        "peak_rss_mb": _metric(statistics.median(rss_mb), "MB"),
    }
    details = {
        "sweeps": len(sweeps),
        # Not a gated metric: see "first_row_ms" in perfbench/README.md.
        "first_row_ms": statistics.median(firsts) * 1e3,
        "row_latency_samples": len(arrivals),
        "row_latency_beyond_p90": sum(1 for t in arrivals if t > p90),
        "setup_samples_s": list(setup_s),
    }
    return metrics, details


# ---------------------------------------------------------------------------
# Untraced: the real daemon as a child process
# ---------------------------------------------------------------------------


def measure(args, workload: Workload, expected, rows: Rows):
    from perfbench.daemon import Daemon
    from perfbench.loadgen import run_phase

    daemons, rss_mb = [], []

    def start() -> Daemon:
        daemons.append(Daemon(
            SRC, WORK / f"daemon-{len(daemons)}", workers=workload.workers,
        ).start())
        return daemons[-1]

    # A run replaces its daemon only every pass over the pool, so set-up
    # time is the median of several starts.
    for _ in range(SETUP_REPEATS - 1):
        start().close()
    # Peak RSS is read after each daemon's first sweep, a fixed amount of
    # work: the daemon keeps every job set's event log, so reading it later
    # would charge a faster daemon for the extra sweeps it served.
    phase = run_phase(
        start, workload.bodies, expected.verify,
        seconds=args.seconds, min_rows=MIN_ROWS,
        sweeps_per_server=workload.sweeps_per_server,
        after_first_sweep=lambda d: rss_mb.append(d.peak_rss_mb()),
    )
    rows.add(phase.sweeps)
    setup_s = [d.start_s for d in daemons]
    metrics, details = _end_to_end(
        phase.sweeps, phase.wall_s, setup_s, rss_mb, rows
    )
    details.update(
        handler_tracebacks=sum(d.tracebacks for d in daemons),
        http_errors=sum(sweep.http_errors for sweep in phase.sweeps),
    )
    return metrics, details


# ---------------------------------------------------------------------------
# Traced: the daemon's server hosted in this process, layers wrapped
# ---------------------------------------------------------------------------


class _TracebackCounter:
    """Stands in for ``sys.stderr``: forwards writes, counts tracebacks."""

    def __init__(self, target) -> None:
        self.target = target
        self.count = 0

    def write(self, text: str) -> int:
        self.count += text.count("Traceback (most recent call last)")
        return self.target.write(text)

    def __getattr__(self, name):
        return getattr(self.target, name)


_COUNT_NAMES = ("hits", "misses", "retries", "respawns", "timeouts",
                "quarantined")


def _service_counts(service) -> dict:
    stats = service.stats()
    counts = {
        "hits": stats["cache"]["hits"], "misses": stats["cache"]["misses"],
    }
    for name in ("retries", "respawns", "timeouts", "quarantined"):
        counts[name] = stats["supervision"][name]
    return counts


def trace(args, workload: Workload, expected, rows: Rows):
    from perfbench.layers import Probe, instrument
    from perfbench.loadgen import run_phase
    from perfbench.tracing import Tracer
    from repro.server import ReproServer

    runs = iter(range(1 << 30))
    tracer, probe = Tracer(), Probe()
    counts = dict.fromkeys(_COUNT_NAMES, 0)

    def start() -> ReproServer:
        host = ReproServer(
            "127.0.0.1", 0, cache_dir=str(WORK / f"inproc-{next(runs)}"),
            workers=workload.workers,
        ).start()
        probe.service = host.service
        return host

    def add_counts(host: ReproServer) -> None:
        for name, value in _service_counts(host.service).items():
            counts[name] += value

    def phase(traced: bool):
        """One measured phase, all of it traced or none of it."""
        stderr = sys.stderr
        counter = _TracebackCounter(stderr)
        if traced:
            instrument(tracer, probe)
            sys.stderr = counter
        try:
            result = run_phase(
                start, workload.bodies, expected.verify,
                seconds=args.seconds / 2.0, min_rows=1,
                sweeps_per_server=workload.sweeps_per_server,
                before_close=add_counts if traced else None,
            )
        finally:
            if traced:
                tracer.uninstall()
                sys.stderr = stderr
                counts["tracebacks"] = counter.count
        rows.add(result.sweeps)
        return result

    untraced = phase(False)
    traced = phase(True)
    metrics = _per_layer(tracer, probe, traced, untraced, counts)
    spans_path = WORK / f"spans-{args.workload}-{args.seed}.json"
    spans_path.write_text(json.dumps([asdict(s) for s in tracer.spans]))
    return metrics, {"spans": str(spans_path.relative_to(ROOT)),
                     "span_count": len(tracer.spans)}


def _per_layer(tracer, probe, phase, untraced, counts):
    sweeps = phase.sweeps
    n_sweeps = len(sweeps)
    bodies = [body for sweep in sweeps for body in sweep.bodies]
    cpu_subs = sum(1 for b in bodies if b["spec"]["kind"] == "workload")
    topo_subs = sum(1 for b in bodies if b["spec"]["kind"] == "topology")
    layouts = sum(len(set(sweep.layouts)) for sweep in sweeps)

    def per(name: str, base: int, unit: str, scale: float = 1e3):
        total, calls = tracer.self_time(name)
        if base is None:
            base = calls
        return _metric(total * scale / base if base else 0.0, unit)

    def calls(name: str) -> int:
        return tracer.self_time(name)[1]

    submit_s = [t for sweep in sweeps for t in sweep.submit_s]
    lookups = counts["hits"] + counts["misses"]
    scalar = [(s, c) for s, c, extrapolated in probe.kernel_runs
              if not extrapolated]
    scalar_cycles = sum(c for _, c in scalar)
    metrics = {
        "server.submit_ms": _metric(statistics.median(submit_s) * 1e3, "ms"),
        "server.encode_ms": per("server.encode", phase.rows, "ms/row"),
        "server.http_errors": _metric(
            sum(s.http_errors for s in sweeps) / n_sweeps, "count/sweep"
        ),
        "server.handler_tracebacks": _metric(
            counts["tracebacks"] / n_sweeps, "count/sweep"
        ),
        "cpu.build_ms": per("cpu.build", cpu_subs, "ms/submission"),
        "topology.build_ms": per(
            "topology.build", topo_subs, "ms/submission"
        ),
        "service.ensure_layout_ms": per(
            "service.ensure_layout", None, "ms/call"
        ),
        "service.digest_calls": _metric(
            calls("service.digest") / len(bodies), "count/submission"
        ),
        "service.digest_ms": per("service.digest", len(bodies),
                                 "ms/submission"),
        "service.submit_ms": per("service.submit", None, "ms/call"),
        "service.cache_get_ms": per("service.cache_get", None, "ms/call"),
        "service.cache_hit_rate": _metric(
            counts["hits"] / lookups if lookups else 0.0, "ratio"
        ),
        "service.cache_put_ms": per("service.cache_put", None, "ms/call"),
        "service.queue_wait_ms": _metric(
            statistics.median(probe.queue_wait_s) * 1e3
            if probe.queue_wait_s else 0.0, "ms"
        ),
        "engine.run_many_calls": _metric(
            calls("engine.run_many") / n_sweeps, "count/sweep"
        ),
        "engine.items_per_call": _metric(
            statistics.mean(probe.run_many_items)
            if probe.run_many_items else 0.0, "items/call"
        ),
        "engine.bind_ms": per("engine.bind", None, "ms/call"),
        "engine.bind_calls": _metric(
            calls("engine.bind") / n_sweeps, "count/sweep"
        ),
        "engine.codegen_ms": per("engine.codegen", None, "ms/call"),
        "engine.codegen_calls": _metric(
            calls("engine.codegen") / layouts if layouts else 0.0,
            "count/layout",
        ),
        "engine.kernel_ms": per("engine.kernel", None, "ms/call"),
        "engine.kernel_us_per_cycle": _metric(
            sum(s for s, _ in scalar) * 1e6 / scalar_cycles
            if scalar_cycles else 0.0, "us/cycle"
        ),
        "engine.extrapolated_rows": _metric(
            sum(1 for run in probe.kernel_runs if run[2]) / n_sweeps,
            "count/sweep",
        ),
    }
    for name in ("retries", "respawns", "timeouts", "quarantined"):
        metrics[f"engine.supervision.{name}"] = _metric(counts[name], "count")
    metrics["trace.coverage"] = _metric(
        sum(span.self_s for span in tracer.spans) / phase.wall_s, "ratio"
    )
    metrics["trace.overhead"] = _metric(
        statistics.median(s.total_s for s in sweeps)
        / statistics.median(s.total_s for s in untraced.sweeps), "ratio"
    )
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="self-test sizes (expected rows computed)")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="alter one expected row (self-test)")
    parser.add_argument("--data-seeds", metavar="FIRST:COUNT",
                        help="data seeds FIRST.. instead of the stored pool; "
                        "their expected rows are computed before timing")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so every daemon started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    # Users get the program's defaults (kernel, steady state, open tenancy,
    # no injected faults), here and in the daemon that inherits this env.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]

    from perfbench import specs
    from perfbench.expected import Expected

    sizes = specs.TOY if args.toy else specs.FULL
    expected = Expected()
    workload = Workload(args, sizes, expected)
    if args.corrupt_expected:
        expected.corrupt(workload.bodies(0))
    rows = Rows()
    stamp = _stamp(args)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        if args.trace:
            metrics, details = trace(args, workload, expected, rows)
        else:
            metrics, details = measure(args, workload, expected, rows)
    finally:
        for path in WORK.glob("*"):
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
    print(json.dumps({"stamp": stamp, "details": details}))
    print(json.dumps({
        "correct": rows.failed == 0,
        "attempted": rows.attempted,
        "failed": rows.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
