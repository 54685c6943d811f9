"""Wall-clock and peak-memory profiling for the efficiency comparison.

Fig. 6(a) of the paper reports training-time and memory overhead per
method.  Here every method runs on the same NumPy substrate and the same
workload, so relative ordering is meaningful; memory is peak *Python*
allocation measured with ``tracemalloc`` (the NumPy buffers dominate and
are tracked by it).

Since the observability layer landed, :func:`profile_call` is a thin
harness over :mod:`repro.obs.tracing`: the profiled call runs inside a
``profile`` span, and any spans the callee opens (the trainer's
``fit/epoch/batch``, the serving loop's ``serving.update``) are
aggregated into :attr:`ResourceProfile.breakdown` — per-component
attribution for the Fig. 6 comparison, for free, whenever tracing is
enabled around the call.

``tracemalloc`` handling is re-entrancy safe: if the interpreter is
already tracing (an enclosing :func:`profile_call`, a pytest plugin),
the profiler snapshots the current allocation, resets the peak counter,
and reports the delta — and it only ever stops the tracer it started
itself, so the outer measurement keeps running.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Dict

from repro.obs.tracing import aggregate_spans, current_tracer, span

__all__ = ["ResourceProfile", "profile_call"]

_MB = 1024.0 * 1024.0


@dataclass(frozen=True)
class ResourceProfile:
    """Outcome of profiling one call."""

    wall_seconds: float
    peak_memory_mb: float
    result: object = None
    # Per-span-path totals ({path: {count, seconds}}) captured
    # during the call; empty unless tracing was enabled around it.
    breakdown: Dict[str, dict] = field(default_factory=dict)

    def as_row(self) -> tuple:
        return (self.wall_seconds, self.peak_memory_mb)

    def component_seconds(self, path: str) -> float:
        """Total wall seconds attributed to one span path (0.0 if absent)."""
        entry = self.breakdown.get(path)
        return entry["seconds"] if entry else 0.0


def profile_call(fn: Callable, *args, **kwargs) -> ResourceProfile:
    """Run ``fn`` once, measuring wall time and peak traced memory."""
    already_tracing = tracemalloc.is_tracing()
    if already_tracing:
        baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
    else:
        tracemalloc.start()
        baseline = 0
    tracer = current_tracer()
    span_mark = len(tracer.spans) if tracer is not None else 0
    started = time.perf_counter()
    try:
        with span("profile", target=getattr(fn, "__name__", repr(fn))):
            result = fn(*args, **kwargs)
    finally:
        elapsed = time.perf_counter() - started
        current, peak = tracemalloc.get_traced_memory()
        if not already_tracing:
            tracemalloc.stop()
    # ``peak`` is since-start for a tracer we own, since-reset otherwise;
    # either way the call's contribution is its growth over the baseline.
    peak_mb = max(max(peak, current) - baseline, 0) / _MB
    breakdown: Dict[str, dict] = {}
    if tracer is not None and len(tracer.spans) > span_mark:
        breakdown = aggregate_spans(tracer.spans[span_mark:])
    return ResourceProfile(elapsed, peak_mb, result, breakdown)
