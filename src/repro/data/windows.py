"""Sliding-window pipeline feeding the detectors.

All reconstruction models consume fixed-length windows; at test time every
timestamp needs a score, which :func:`scores_to_timeline` assembles from
per-window, per-timestep errors (averaging overlaps).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Iterator, List, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "sliding_windows",
    "window_starts",
    "WindowBatch",
    "WindowDataset",
    "scores_to_timeline",
]


def sliding_windows(series: np.ndarray, window: int, stride: int = 1) -> np.ndarray:
    """``(T_total, m) -> (W, window, m)`` windows with the given stride."""
    return np.ascontiguousarray(_window_view(series, window, stride))


def _window_view(series: np.ndarray, window: int, stride: int) -> np.ndarray:
    """:func:`sliding_windows` as a strided view of ``series`` (no copy)."""
    if series.ndim == 1:
        series = series[:, None]
    if series.shape[0] < window:
        raise ValueError(
            f"series length {series.shape[0]} shorter than window {window}"
        )
    if stride < 1:
        raise ValueError("stride must be >= 1")
    views = sliding_window_view(series, window, axis=0)  # (W, m, window)
    return np.moveaxis(views[::stride], -1, 1)


def window_starts(length: int, window: int, stride: int = 1) -> np.ndarray:
    """Start index of each window produced by :func:`sliding_windows`."""
    return np.arange(0, length - window + 1, stride)


@dataclass
class WindowBatch:
    """A mini-batch of windows from one service."""

    windows: np.ndarray  # (B, window, m)
    service_index: int
    service_id: str


class WindowDataset:
    """Windows from several services, batched per service.

    MACE's pattern extraction projects each window onto its *service's*
    subspace, so batches never mix services; shuffling happens at the
    (service, batch) level, which also matches how the unified-model
    training in the paper feeds ten subsets to one model.
    """

    def __init__(self, series_per_service: Sequence[np.ndarray],
                 service_ids: Sequence[str], window: int, stride: int = 1):
        if len(series_per_service) != len(service_ids):
            raise ValueError("series and ids must align")
        self.window = window
        self.stride = stride
        self.service_ids = list(service_ids)
        # Strided views, not copies: each batch's fancy-index gather
        # already makes the contiguous copy the model reads.
        self._windows: List[np.ndarray] = [
            _window_view(series, window, stride) for series in series_per_service
        ]

    @property
    def num_services(self) -> int:
        return len(self._windows)

    @property
    def num_windows(self) -> int:
        return sum(w.shape[0] for w in self._windows)

    def map(self, fn: Callable[[np.ndarray], np.ndarray]) -> "WindowDataset":
        """This dataset over ``fn`` of each service's ``(W, window, m)``
        windows, computed once.  Its batches hold ``fn(windows)[picks]``
        for the picks this dataset draws from the same generator, so a
        per-window transform runs once rather than on every batch."""
        mapped = copy.copy(self)
        mapped._windows = [fn(windows) for windows in self._windows]
        return mapped

    def batches(self, batch_size: int, rng: np.random.Generator | None = None,
                shuffle: bool = True) -> Iterator[WindowBatch]:
        """Yield per-service batches, optionally shuffled across services."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        plan: List[Tuple[int, np.ndarray]] = []
        for service_index, windows in enumerate(self._windows):
            order = np.arange(windows.shape[0])
            if shuffle and rng is not None:
                rng.shuffle(order)
            for start in range(0, order.size, batch_size):
                plan.append((service_index, order[start:start + batch_size]))
        if shuffle and rng is not None:
            rng.shuffle(plan)
        for service_index, picks in plan:
            yield WindowBatch(
                windows=self._windows[service_index][picks],
                service_index=service_index,
                service_id=self.service_ids[service_index],
            )


def scores_to_timeline(window_scores: np.ndarray, length: int, window: int,
                       stride: int = 1) -> np.ndarray:
    """Average per-window, per-timestep scores into a per-timestamp score.

    ``window_scores`` is ``(W, window)``; overlapping contributions are
    averaged.  Timestamps not covered by any window (tail when stride > 1)
    inherit the nearest covered score.
    """
    if window_scores.ndim != 2 or window_scores.shape[1] != window:
        raise ValueError("window_scores must be (num_windows, window)")
    totals = np.zeros(length)
    counts = np.zeros(length)
    starts = window_starts(length, window, stride)
    if starts.size != window_scores.shape[0]:
        raise ValueError(
            f"expected {starts.size} windows for length={length}, "
            f"got {window_scores.shape[0]}"
        )
    # One strided add per window offset.  Offsets go in reverse so that each
    # timestamp sums its windows in increasing window order, the order a
    # per-window loop uses; floating-point sums depend on that order.
    for offset in range(window - 1, -1, -1):
        cells = slice(offset, offset + starts.size * stride, stride)
        totals[cells] += window_scores[:, offset]
        counts[cells] += 1.0
    covered = counts > 0
    timeline = np.zeros(length)
    timeline[covered] = totals[covered] / counts[covered]
    if not covered.all() and covered.any():
        # forward/backward fill uncovered edges with nearest covered value
        indices = np.where(covered)[0]
        timeline[:indices[0]] = timeline[indices[0]]
        timeline[indices[-1]:] = timeline[indices[-1]]
    return timeline
