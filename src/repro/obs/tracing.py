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

    from repro.obs import (aggregate_spans, disable_tracing,
                           enable_tracing, span)

    tracer = enable_tracing(trace_memory=True)
    with span("fit"):
        with span("epoch"):
            ...
    disable_tracing()
    aggregate_spans(tracer.spans)   # per-path totals
    tracer.to_jsonl()               # one span per line, for `repro obs report`

``sample_rate`` keeps a fixed deterministic fraction of *root* spans
(children follow their root's fate, so sampled traces are always whole
trees): a rate of 0.25 records every fourth root span via an error
accumulator, not a random draw, so runs are reproducible.

When ``trace_memory=True`` each span also carries the net ``tracemalloc``
allocation delta over its extent.  The tracer starts ``tracemalloc`` only
if it is not already running, and stops only what it started, so tracing
composes with :func:`repro.eval.profile_call` and with pytest plugins
that keep tracemalloc alive.

:func:`profile_ops` is the op-level magnifier: it registers an autograd
op hook (the same mechanism :mod:`repro.analysis.trace` uses for graph
capture) and attributes wall time to each op as the gap since the
previous op event — the substrate executes ops eagerly, so the gap is the
op's own compute plus the surrounding Python glue.  Per-op latency lands
in the metrics registry as ``autograd.op_seconds{op=...}``.
"""

from __future__ import annotations

import contextlib
import json
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry, get_registry

__all__ = [
    "SpanRecord",
    "Tracer",
    "span",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "current_tracer",
    "profile_ops",
]


@dataclass(frozen=True)
class SpanRecord:
    """One completed span."""

    name: str
    path: str               # dotted path of enclosing span names
    depth: int              # 0 for a root span
    start: float            # perf_counter() at entry (relative clock)
    seconds: float
    memory_kb: Optional[float] = None   # net traced-allocation delta
    attrs: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        record = {"name": self.name, "path": self.path, "depth": self.depth,
                  "start": self.start, "seconds": self.seconds}
        if self.memory_kb is not None:
            record["memory_kb"] = self.memory_kb
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

    __slots__ = ("_tracer", "name", "attrs", "_start", "_mem_start",
                 "_recording")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict,
                 recording: bool):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._recording = recording
        self._start = 0.0
        self._mem_start = 0

    def __enter__(self) -> "_ActiveSpan":
        tracer = self._tracer
        tracer._stack.append(self)
        if self._recording:
            if tracer.trace_memory:
                self._mem_start = tracemalloc.get_traced_memory()[0]
            self._start = time.perf_counter()  # effects: ok TIME reason=span duration is telemetry, never model input
        return self

    def __exit__(self, *exc_info) -> bool:
        tracer = self._tracer
        elapsed = (time.perf_counter() - self._start if self._recording  # effects: ok TIME reason=span duration is telemetry, never model input
                   else 0.0)
        stack = tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        else:  # unbalanced exit (generator GC'd mid-span); best effort
            try:
                stack.remove(self)
            except ValueError:
                pass
        if self._recording:
            memory_kb = None
            if tracer.trace_memory:
                mem_now = tracemalloc.get_traced_memory()[0]
                memory_kb = (mem_now - self._mem_start) / 1024.0
            path = "/".join([frame.name for frame in stack
                             if frame._recording] + [self.name])
            tracer.spans.append(SpanRecord(
                name=self.name, path=path, depth=len(stack),
                start=self._start, seconds=elapsed, memory_kb=memory_kb,
                attrs=self.attrs,
            ))
        return False


class Tracer:
    """Collects :class:`SpanRecord` entries for one tracing session."""

    def __init__(self, sample_rate: float = 1.0, trace_memory: bool = False):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        self.sample_rate = sample_rate
        self.trace_memory = trace_memory
        self.spans: List[SpanRecord] = []
        self._stack: List[_ActiveSpan] = []
        self._accumulator = 0.0
        self._started_tracemalloc = False

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "Tracer":
        if self.trace_memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True
        return self

    def stop(self) -> "Tracer":
        if self._started_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._started_tracemalloc = False
        return self

    # -- span creation -------------------------------------------------
    def span(self, name: str, attrs: Optional[dict] = None) -> _ActiveSpan:
        if self._stack:
            recording = self._stack[-1]._recording
        else:
            recording = self._sample()
        return _ActiveSpan(self, name, attrs or {}, recording)

    def _sample(self) -> bool:
        """Deterministic stride sampling of root spans."""
        self._accumulator += self.sample_rate
        if self._accumulator >= 1.0 - 1e-12:
            self._accumulator -= 1.0
            return True
        return False

    # -- export --------------------------------------------------------
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
        path = record["path"]
        entry = totals.setdefault(path, {
            "count": 0, "seconds": 0.0, "memory_kb": 0.0,
        })
        entry["count"] += 1
        entry["seconds"] += record["seconds"]
        entry["memory_kb"] += record.get("memory_kb") or 0.0
    return totals


_TRACER: Optional[Tracer] = None


def span(name: str, **attrs: object):
    """Open a (possibly nested) span; free when tracing is disabled."""
    tracer = _TRACER  # effects: ok FORK_GLOBAL reason=swap point by design; workers enable their own tracer
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, attrs if attrs else None)


def enable_tracing(sample_rate: float = 1.0,
                   trace_memory: bool = False) -> Tracer:
    """Install and start a fresh :class:`Tracer`; returns it."""
    global _TRACER
    if _TRACER is not None:
        _TRACER.stop()
    _TRACER = Tracer(sample_rate=sample_rate,
                     trace_memory=trace_memory).start()
    return _TRACER  # effects: ok FORK_GLOBAL reason=swap point by design; workers enable their own tracer


def disable_tracing() -> Optional[Tracer]:
    """Stop tracing; returns the tracer (with its spans) if one was live."""
    global _TRACER
    tracer = _TRACER  # effects: ok FORK_GLOBAL reason=swap point by design; workers enable their own tracer
    _TRACER = None
    if tracer is not None:
        tracer.stop()
    return tracer


def tracing_enabled() -> bool:
    return _TRACER is not None


def current_tracer() -> Optional[Tracer]:
    return _TRACER


@contextlib.contextmanager
def profile_ops(registry: Optional[MetricsRegistry] = None):
    """Record per-autograd-op latency histograms while the block runs.

    Attribution is gap-based: the op hook fires right after each op's
    output is constructed, so the time since the previous hook (or since
    the block was entered) is that op's compute plus its Python glue.
    The histograms land in ``registry`` (default: the installed one) as
    ``autograd.op_seconds{op=...}`` with ``autograd.ops{op=...}`` counts.
    """
    from repro.nn.autograd import register_op_hook, unregister_op_hook

    target = registry if registry is not None else get_registry()
    series: Dict[str, Tuple[object, object]] = {}
    last = [time.perf_counter()]

    def hook(out, parents, op):
        now = time.perf_counter()
        pair = series.get(op)
        if pair is None:
            pair = (target.histogram("autograd.op_seconds", op=op),
                    target.counter("autograd.ops", op=op))
            series[op] = pair
        pair[0].observe(now - last[0])
        pair[1].inc()
        last[0] = now

    register_op_hook(hook)
    try:
        yield target
    finally:
        unregister_op_hook(hook)
