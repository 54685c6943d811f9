"""Span-based tracing with a near-zero-cost disabled path.

A *span* is one timed region of the computation — an epoch, a batch, a
serving update, a whole ``fit``.  Spans nest: entering a span inside
another records the dotted path (``fit/epoch/batch``), so aggregation can
attribute time per phase the way the paper's Fig. 6 attributes cost per
method.

Tracing is **off by default**.  The instrumented call sites stay in the
hot paths permanently, so the disabled cost is one module-global read and
the return of a shared no-op context manager — no allocation, no clock
read.  `make obs-overhead` gates that cost on a seeded trainer run at 3%
relative or 10 ms absolute, an effective budget of max(3%, 10 ms /
baseline).  Enable it explicitly::

    from repro.obs.tracing import (aggregate_spans, disable_tracing,
                                   enable_tracing, span)

    tracer = enable_tracing()
    with span("fit"):
        with span("epoch"):
            ...
    disable_tracing()
    aggregate_spans(tracer.spans)   # per-path totals
    tracer.to_jsonl()               # one span per line, for `repro obs report`

Every span is recorded; there is no sampling.  Per-layer forward and
backward timing is not a span concern: the benchmark suite's traced run
(``benchmarks/suite/run.py --trace``) reports it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "SpanRecord",
    "Tracer",
    "span",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "current_tracer",
]


@dataclass(frozen=True)
class SpanRecord:
    """One completed span."""

    name: str
    path: str               # dotted path of enclosing span names
    depth: int              # 0 for a root span
    start: float            # perf_counter() at entry (relative clock)
    seconds: float
    attrs: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        record = {"name": self.name, "path": self.path, "depth": self.depth,
                  "start": self.start, "seconds": self.seconds}
        if self.attrs:
            record["attrs"] = self.attrs
        return record


class _NullSpan:
    """Shared do-nothing context manager: the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager recording one span into its tracer."""

    __slots__ = ("_tracer", "name", "attrs", "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._start = 0.0

    def __enter__(self) -> "_ActiveSpan":
        self._tracer._stack.append(self)
        self._start = time.perf_counter()  # effects: ok TIME reason=span duration is telemetry, never model input
        return self

    def __exit__(self, *exc_info) -> bool:
        elapsed = time.perf_counter() - self._start  # effects: ok TIME reason=span duration is telemetry, never model input
        tracer = self._tracer
        stack = tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        else:  # unbalanced exit (generator GC'd mid-span); best effort
            try:
                stack.remove(self)
            except ValueError:
                pass
        path = "/".join([frame.name for frame in stack] + [self.name])
        tracer.spans.append(SpanRecord(
            name=self.name, path=path, depth=len(stack),
            start=self._start, seconds=elapsed, attrs=self.attrs,
        ))
        return False


class Tracer:
    """Collects :class:`SpanRecord` entries for one tracing session."""

    def __init__(self):
        self.spans: List[SpanRecord] = []
        self._stack: List[_ActiveSpan] = []

    def span(self, name: str, attrs: Optional[dict] = None) -> _ActiveSpan:
        return _ActiveSpan(self, name, attrs or {})

    def to_jsonl(self) -> str:
        lines = [json.dumps(record.as_dict(), sort_keys=True)
                 for record in self.spans]
        return "\n".join(lines) + ("\n" if lines else "")

    def dump(self, path) -> None:
        from repro.nn.serialization import atomic_replace

        atomic_replace(path, self.to_jsonl().encode("utf-8"))


def aggregate_spans(spans) -> Dict[str, dict]:
    """Group span records (or their dicts) by path and total them up."""
    totals: Dict[str, dict] = {}
    for record in spans:
        if isinstance(record, SpanRecord):
            record = record.as_dict()
        entry = totals.setdefault(record["path"], {"count": 0, "seconds": 0.0})
        entry["count"] += 1
        entry["seconds"] += record["seconds"]
    return totals


_TRACER: Optional[Tracer] = None


def span(name: str, **attrs: object):
    """Open a (possibly nested) span; free when tracing is disabled."""
    tracer = _TRACER  # effects: ok FORK_GLOBAL reason=swap point by design; workers enable their own tracer
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, attrs if attrs else None)


def enable_tracing() -> Tracer:
    """Install a fresh :class:`Tracer`; returns it."""
    global _TRACER
    _TRACER = Tracer()
    return _TRACER  # effects: ok FORK_GLOBAL reason=swap point by design; workers enable their own tracer


def disable_tracing() -> Optional[Tracer]:
    """Stop tracing; returns the tracer (with its spans) if one was live."""
    global _TRACER
    tracer = _TRACER  # effects: ok FORK_GLOBAL reason=swap point by design; workers enable their own tracer
    _TRACER = None
    return tracer


def tracing_enabled() -> bool:
    return _TRACER is not None


def current_tracer() -> Optional[Tracer]:
    return _TRACER
