"""Timing wrappers with self-time accounting, installed from outside ``src``.

A :class:`Tracer` owns a stack of open spans.  Every wrapped call pushes
a frame; when it returns, its wall time is charged to the caller as
child time, and its *self* time (wall minus wrapped children) to its own
key.  Time spent outside any wrapped call is what the harness reports as
``unattributed_s``: by construction the self times of all keys sum to
the tracer's top-level time, so ``sum(self) + unattributed == wall``.

:func:`installed` patches attributes in place and always restores the
exact original objects, including removing an attribute a subclass only
inherited.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Tracer", "Target", "resolve", "installed", "tail_percentile",
           "reportable_percentile", "TAIL_CANDIDATES", "MIN_BEYOND"]

# Percentiles the tail rule may report, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def reportable_percentile(count: int) -> Optional[float]:
    """The highest candidate percentile of ``count`` samples that has at
    least ``MIN_BEYOND`` of them beyond it, or ``None``."""
    for percentile in TAIL_CANDIDATES:
        if count * (100.0 - percentile) / 100.0 >= MIN_BEYOND - 1e-9:
            return percentile
    return None


def tail_percentile(samples: Sequence[float]
                    ) -> Optional[Tuple[float, float, int]]:
    """``(percentile, value, sample_count)`` at the reportable percentile,
    or ``None`` when even the median lacks ten samples above it."""
    ordered = sorted(samples)
    percentile = reportable_percentile(len(ordered))
    if percentile is None:
        return None
    return percentile, _interpolate(ordered, percentile), len(ordered)


def _interpolate(ordered: List[float], percentile: float) -> float:
    """Linear-interpolated percentile of already sorted samples."""
    position = (len(ordered) - 1) * percentile / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Tracer:
    """Per-key call counts and self time, plus named counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}
        self.top_level_s = 0.0
        self._stack: List[list] = []     # [key, start, child seconds]

    # -- accounting ----------------------------------------------------
    def enter(self, key: str) -> None:
        self._stack.append([key, self.clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost frame; returns its wall time."""
        key, start, child = self._stack.pop()
        elapsed = self.clock() - start
        self.self_s[key] = self.self_s.get(key, 0.0) + (elapsed - child)
        if self._stack:
            self._stack[-1][2] += elapsed
        else:
            self.top_level_s += elapsed
        return elapsed

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    # -- wrappers ------------------------------------------------------
    def wrap(self, key: str, function: Callable,
             observe: Optional[Callable] = None) -> Callable:
        """Timed stand-in for ``function``.

        ``observe(tracer, result, wall_seconds)``, if given, runs after
        each completed call (outside the timed frame) to record counters
        derived from the call.
        """
        tracer = self

        @functools.wraps(function)
        def timed(*args, **kwargs):
            tracer.calls[key] = tracer.calls.get(key, 0) + 1
            tracer.enter(key)
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = tracer.exit()
            if observe is not None:
                observe(tracer, result, elapsed)
            return result

        return timed


@dataclass(frozen=True)
class Target:
    """One wrappable attribute: ``module`` plus a dotted ``qualname``,
    reported under ``key``; ``observe`` as in :meth:`Tracer.wrap`."""

    key: str
    module: str
    qualname: str
    observe: Optional[Callable] = None


def resolve(target: Target) -> Tuple[object, str]:
    """``(owner, attribute)`` that :func:`installed` patches."""
    owner = importlib.import_module(target.module)
    *path, attribute = target.qualname.split(".")
    for name in path:
        owner = getattr(owner, name)
    if not hasattr(owner, attribute):
        raise AttributeError(
            f"{target.module}:{target.qualname} does not exist; the "
            f"benchmark's trace target {target.key!r} needs updating")
    return owner, attribute


_MISSING = object()


@contextlib.contextmanager
def installed(tracer: Tracer, targets: Sequence[Target]) -> Iterator[Tracer]:
    """Patch every target with a timing wrapper; restore on exit."""
    saved = []
    try:
        for target in targets:
            owner, attribute = resolve(target)
            original = vars(owner).get(attribute, _MISSING)
            function = getattr(owner, attribute)
            saved.append((owner, attribute, original))
            setattr(owner, attribute,
                    tracer.wrap(target.key, function, target.observe))
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
