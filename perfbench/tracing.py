"""Spans around each layer's public entry points, recorded from outside.

:class:`Tracer` wraps functions and methods of the program (module
attributes and class attributes, restored by :meth:`Tracer.uninstall`) so
that each call records a :class:`Span`: layer name, start, end, the span
that caused it (the enclosing span on the same thread) and the identifier
shared by all spans under one root span.  A span's *self* time is its
duration minus that of its child spans.  Spans are kept in memory and
written out by the caller when the run ends.

Recording takes no lock: ``list.append`` is atomic, and a pool worker
forked while another thread is inside a span must not inherit a held lock.
Spans recorded in forked pool workers stay in those workers.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    self_s: float
    span_id: int
    parent_id: Optional[int]
    trace_id: int
    thread: str


class _Open:
    __slots__ = ("span_id", "trace_id", "child_s")

    def __init__(self, span_id: int, trace_id: int) -> None:
        self.span_id = span_id
        self.trace_id = trace_id
        self.child_s = 0.0


class Tracer:
    """Records a span per call of every wrapped layer entry point."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[[Any, Tuple, Dict, Span], None]] = None,
    ) -> Callable:
        """*fn* recording a *name* span per call; *after* sees
        ``(result, args, kwargs, span)`` once it returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            frame = _Open(span_id, parent.trace_id if parent else span_id)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent.child_s += duration
                span = Span(
                    name, start, end, duration - frame.child_s, span_id,
                    parent.span_id if parent else None, frame.trace_id,
                    threading.current_thread().name,
                )
                self.spans.append(span)
            if after is not None:
                after(result, args, kwargs, span)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by its traced version until uninstall."""
        original = owner.__dict__[attr] if isinstance(owner, type) else (
            getattr(owner, attr)
        )
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_time(self, name: str) -> Tuple[float, int]:
        """Total self seconds and call count of *name* spans."""
        spans = [span for span in self.spans if span.name == name]
        return sum(span.self_s for span in spans), len(spans)
