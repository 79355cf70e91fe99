"""Which program entry points the traced run wraps, and what each records.

Layers and their span names (see ``perfbench/README.md`` for the metric
each one feeds):

==================  =====================================================
span                wrapped entry points
==================  =====================================================
``server.encode``   ``job_event`` and ``encode_sse`` as the daemon calls
                    them (per-row event and its SSE framing)
``cpu.build``       ``make_extraction_sort``, ``make_matrix_multiply``,
                    ``build_pipelined_cpu``
``topology.build``  ``make_topology``
``service.*``       ``EvaluationService.ensure_layout`` / ``submit``,
                    ``BatchRunner.netlist_digest``, ``ResultCache.get`` /
                    ``put``
``engine.*``        ``MultiNetlistRunner.run_many``, ``Elaborator.bind``,
                    ``compiled_run_fn``, every kernel's ``run`` and
                    ``run_lockstep_batch``
==================  =====================================================
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from .tracing import Tracer


class Probe:
    """Per-job submit times, so queue wait can be measured at ``run_many``.

    ``service`` is the in-process evaluation service currently traced; its
    ``_current`` chunk tells which jobs a ``run_many`` call carries (the
    ones still running when it returns).
    """

    def __init__(self) -> None:
        self.service: Optional[Any] = None
        self.submitted_at: Dict[int, float] = {}
        self.queue_wait_s: List[float] = []
        self.run_many_items: List[int] = []
        #: (self seconds, cycles, extrapolated) per scalar kernel run.
        self.kernel_runs: List[tuple] = []


def instrument(tracer: Tracer, probe: Probe) -> None:
    import repro.cpu.machine as machine
    import repro.cpu.workloads as cpu_workloads
    import repro.engine.compiled as compiled
    import repro.engine.lockstep as lockstep
    import repro.server.app as app
    import repro.topology as topology
    from repro.engine import (
        CompiledKernel,
        FastKernel,
        LockstepKernel,
        ReferenceKernel,
    )
    from repro.engine.batch import BatchRunner, MultiNetlistRunner
    from repro.engine.elaboration import Elaborator
    from repro.service.cache import ResultCache
    from repro.service.scheduler import EvaluationService

    def after_submit(jobset, args, kwargs, span) -> None:
        now = time.perf_counter()
        for job in jobset.jobs:
            if not job.status.terminal:
                probe.submitted_at[job.job_id] = now

    def after_run_many(results, args, kwargs, span) -> None:
        probe.run_many_items.append(len(args[1]))
        service = probe.service
        if service is None:
            return
        for job in list(service._current):
            began = probe.submitted_at.pop(job.job_id, None)
            if began is not None and job.status.value == "running":
                probe.queue_wait_s.append(span.start - began)

    def after_kernel(result, args, kwargs, span) -> None:
        probe.kernel_runs.append(
            (span.self_s, result.cycles, bool(result.extrapolated))
        )

    tracer.patch(app, "job_event", "server.encode")
    tracer.patch(app, "encode_sse", "server.encode")
    tracer.patch(cpu_workloads, "make_extraction_sort", "cpu.build")
    tracer.patch(cpu_workloads, "make_matrix_multiply", "cpu.build")
    tracer.patch(machine, "build_pipelined_cpu", "cpu.build")
    tracer.patch(topology, "make_topology", "topology.build")
    tracer.patch(EvaluationService, "ensure_layout", "service.ensure_layout")
    tracer.patch(EvaluationService, "submit", "service.submit", after_submit)
    tracer.patch(BatchRunner, "netlist_digest", "service.digest")
    tracer.patch(ResultCache, "get", "service.cache_get")
    tracer.patch(ResultCache, "put", "service.cache_put")
    tracer.patch(MultiNetlistRunner, "run_many", "engine.run_many",
                 after_run_many)
    tracer.patch(Elaborator, "bind", "engine.bind")
    tracer.patch(compiled, "compiled_run_fn", "engine.codegen")
    for kernel in (FastKernel, CompiledKernel, ReferenceKernel,
                   LockstepKernel):
        tracer.patch(kernel, "run", "engine.kernel", after_kernel)
    tracer.patch(lockstep, "run_lockstep_batch", "engine.kernel")
