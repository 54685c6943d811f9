"""Dependency-free metrics registry: counters, gauges, streaming histograms.

The registry is the numeric half of the observability layer
(:mod:`repro.obs`): every instrumented component — the trainer, the
serving loop, the fleet orchestrator, the serving gateway — records
into one :class:`MetricsRegistry` and the registry exports itself as
JSONL for offline analysis (``repro obs report``).

Design constraints, in order:

1. **Deterministic.**  Under a fixed insertion order the registry's JSONL
   export is bitwise stable: no wall-clock timestamps, no hashes over
   ``id()``, pure-Python arithmetic only.  (Timestamps belong to the
   event log, not the metric values.)
2. **Mergeable.**  Fleet workers run in separate processes and hand their
   metrics back through ``result.json``; the orchestrator merges them
   into its own registry.  Counter merge is addition, gauge merge is
   last-writer-wins, histogram merge combines the fixed bucket counts and
   the count/sum/min/max moments — an **associative** operation, so the
   merged fleet view does not depend on worker scheduling.
3. **Cheap.**  ``Histogram.observe`` is a bisect plus three P² marker
   updates; ``Counter.inc`` is one float add.  Hot loops should hold the
   metric object directly instead of re-resolving it through the registry
   per iteration.

Histogram quantiles use the P² algorithm (Jain & Chlamtac, 1985): five
markers per tracked quantile, updated in O(1) per observation, no sample
buffer.  P² state is *per stream* and does not merge; a merged histogram
answers :meth:`Histogram.quantile` from its bucket counts instead (the
resolution of the fixed log-spaced grid, which is what makes the merge
associative).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "P2Quantile",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "DEFAULT_QUANTILES",
    "get_registry",
    "install_registry",
]

# Log-spaced 1-2.5-5 grid covering 100ns .. 5000s: wide enough for both
# per-op timings and whole-fit wall clocks without per-metric tuning.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    mantissa * (10.0 ** exponent)
    for exponent in range(-7, 4)
    for mantissa in (1.0, 2.5, 5.0)
)

DEFAULT_QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.99)


class P2Quantile:
    """Streaming estimate of one quantile via the P² marker algorithm.

    Exact for the first five observations (it simply sorts them);
    afterwards five markers track ``[min, q/2-ish, q, (1+q)/2-ish, max]``
    heights and are nudged with piecewise-parabolic interpolation.  The
    update is deterministic, so a fixed insertion order yields a fixed
    estimate.
    """

    __slots__ = ("q", "_heights", "_positions", "_desired", "_increments")

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        self.q = q
        self._heights: List[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    @property
    def count(self) -> int:
        if len(self._heights) < 5:
            return len(self._heights)
        return int(self._positions[4])

    def observe(self, value: float) -> None:
        value = float(value)
        if len(self._heights) < 5:
            self._heights.append(value)
            self._heights.sort()
            return
        heights, positions = self._heights, self._positions
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while value >= heights[cell + 1]:
                cell += 1
        for index in range(cell + 1, 5):
            positions[index] += 1.0
        for index in range(5):
            self._desired[index] += self._increments[index]
        for index in (1, 2, 3):
            drift = self._desired[index] - positions[index]
            step_up = positions[index + 1] - positions[index]
            step_down = positions[index - 1] - positions[index]
            if (drift >= 1.0 and step_up > 1.0) or (drift <= -1.0
                                                    and step_down < -1.0):
                sign = 1.0 if drift >= 1.0 else -1.0
                candidate = self._parabolic(index, sign)
                if heights[index - 1] < candidate < heights[index + 1]:
                    heights[index] = candidate
                else:
                    heights[index] = self._linear(index, sign)
                positions[index] += sign

    def _parabolic(self, index: int, sign: float) -> float:
        heights, positions = self._heights, self._positions
        span = positions[index + 1] - positions[index - 1]
        upper = ((positions[index] - positions[index - 1] + sign)
                 * (heights[index + 1] - heights[index])
                 / (positions[index + 1] - positions[index]))
        lower = ((positions[index + 1] - positions[index] - sign)
                 * (heights[index] - heights[index - 1])
                 / (positions[index] - positions[index - 1]))
        return heights[index] + sign * (upper + lower) / span

    def _linear(self, index: int, sign: float) -> float:
        heights, positions = self._heights, self._positions
        step = int(sign)
        return heights[index] + sign * (
            (heights[index + step] - heights[index])
            / (positions[index + step] - positions[index])
        )

    def value(self) -> float:
        """Current estimate (NaN before any observation)."""
        if not self._heights:
            return float("nan")
        if len(self._heights) < 5:
            ordered = sorted(self._heights)
            rank = self.q * (len(ordered) - 1)
            low = int(rank)
            high = min(low + 1, len(ordered) - 1)
            return ordered[low] + (rank - low) * (ordered[high] - ordered[low])
        return self._heights[2]


class Counter:
    """Monotonically increasing count (events, batches, transitions)."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge instead")
        self.value += amount

    def snapshot(self) -> dict:
        return {"kind": self.kind, "name": self.name,
                "labels": dict(self.labels), "value": self.value}

    def merge(self, other: "Counter") -> None:
        self.value += other.value


class Gauge:
    """Last-written value (learning rate, queue depth, buffer fill)."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value = float("nan")

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> dict:
        return {"kind": self.kind, "name": self.name,
                "labels": dict(self.labels), "value": self.value}

    def merge(self, other: "Gauge") -> None:
        # Last writer wins; the merged-in side is the newer report.
        self.value = other.value


class Histogram:
    """Streaming histogram: moments + fixed buckets + P² quantiles.

    ``observe`` feeds three views of the stream:

    * exact moments — count, sum, min, max;
    * fixed log-spaced bucket counts (``bounds[i]`` is the inclusive
      upper edge of bucket ``i``; the final bucket is the +inf overflow),
      which merge associatively across processes;
    * one :class:`P2Quantile` per :data:`DEFAULT_QUANTILES` entry, the
      high-resolution view for the stream this instance saw itself.

    After :meth:`merge` the P² state is dropped (it is not mergeable) and
    :meth:`quantile` falls back to interpolating the merged bucket counts,
    so any grouping of the same histograms merges to the same state.

    ``observe(value, exemplar=...)`` additionally keeps one *exemplar*
    per bucket: the trace id of the worst (largest) observation that
    landed there.  Exemplars survive snapshot/merge (per-bucket max
    wins, an associative rule), which is how ``obs report`` jumps from
    "p99 regressed" to the exact trace tree that regressed it.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count",
                 "total", "min", "max", "exemplars", "_estimators")
    kind = "histogram"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = (),
                 bounds: Sequence[float] = DEFAULT_BUCKETS):
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("bucket bounds must be strictly increasing")
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        # bucket index -> {"value": worst observation, "trace_id": its
        # trace}; empty until an exemplar-carrying observation arrives.
        self.exemplars: Dict[int, dict] = {}
        self._estimators: Optional[Dict[float, P2Quantile]] = {
            float(q): P2Quantile(q) for q in DEFAULT_QUANTILES
        }

    def observe(self, value: float,
                exemplar: Optional[str] = None) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        bucket = bisect_left(self.bounds, value)
        self.bucket_counts[bucket] += 1
        if exemplar is not None:
            worst = self.exemplars.get(bucket)
            if worst is None or value > worst["value"]:
                self.exemplars[bucket] = {"value": value,
                                          "trace_id": str(exemplar)}
        if self._estimators is not None:
            for estimator in self._estimators.values():
                estimator.observe(value)

    def worst_exemplar(self) -> Optional[dict]:
        """Exemplar of the highest populated bucket (the p100-ish trace).

        Returns ``{"value": ..., "trace_id": ...}`` or ``None`` when no
        exemplar-carrying observation was ever recorded.
        """
        if not self.exemplars:
            return None
        return self.exemplars[max(self.exemplars)]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """P² estimate when available, bucket interpolation after a merge."""
        if self.count == 0:
            return float("nan")
        if self._estimators is not None:
            estimator = self._estimators.get(float(q))
            if estimator is not None:
                return estimator.value()
        return self._bucket_quantile(q)

    def _bucket_quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        target = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lower = self.bounds[index - 1] if index > 0 else self.min
                upper = (self.bounds[index] if index < len(self.bounds)
                         else self.max)
                lower = max(lower, self.min)
                upper = min(upper, self.max)
                fraction = (target - cumulative) / bucket_count
                return lower + fraction * max(upper - lower, 0.0)
            cumulative += bucket_count
        return self.max

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram (associative on buckets)."""
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histograms with different bucket bounds "
                f"({self.name!r})"
            )
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        for index, bucket_count in enumerate(other.bucket_counts):
            self.bucket_counts[index] += bucket_count
        for bucket, exemplar in other.exemplars.items():
            mine = self.exemplars.get(bucket)
            if mine is None or exemplar["value"] > mine["value"]:
                self.exemplars[bucket] = dict(exemplar)
        # Two P² marker sets cannot be combined without the raw stream;
        # quantile() answers from the merged buckets from here on.
        self._estimators = None

    def snapshot(self) -> dict:
        quantiles = {}
        if self.count:
            for q in DEFAULT_QUANTILES:
                quantiles[f"p{int(q * 100)}"] = self.quantile(q)
        snap = {
            "kind": self.kind, "name": self.name,
            "labels": dict(self.labels),
            "count": self.count, "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "quantiles": quantiles,
        }
        if self.exemplars:
            # JSON object keys are strings; the bucket index round-trips
            # through str() in _from_snapshot.
            snap["exemplars"] = {str(bucket): dict(exemplar)
                                 for bucket, exemplar
                                 in sorted(self.exemplars.items())}
        return snap


_MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


class MetricsRegistry:
    """Insertion-ordered collection of named, labelled metrics."""

    def __init__(self):
        self._metrics: Dict[_MetricKey, object] = {}

    # -- get-or-create -------------------------------------------------
    def counter(self, name: str, **labels: object) -> Counter:
        return self._resolve(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._resolve(Gauge, name, labels)

    def histogram(self, name: str, **labels: object) -> Histogram:
        return self._resolve(Histogram, name, labels)

    def _resolve(self, cls, name: str, labels: Dict[str, object]):
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1])
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).kind}, requested {cls.kind}"
            )
        return metric

    # -- introspection -------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(self._metrics.values())

    def get(self, name: str, **labels: object):
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        return self._metrics.get(key)

    def collect(self, name: str) -> List[object]:
        """Every metric series registered under ``name`` (any labels)."""
        return [m for (metric_name, _), m in self._metrics.items()
                if metric_name == name]

    # -- export --------------------------------------------------------
    def snapshot(self) -> List[dict]:
        """One plain dict per metric, in insertion order."""
        return [metric.snapshot() for metric in self._metrics.values()]

    def to_jsonl(self) -> str:
        """Bitwise-stable JSONL export (one metric per line)."""
        lines = [json.dumps(snap, sort_keys=True) for snap in self.snapshot()]
        return "\n".join(lines) + ("\n" if lines else "")

    def dump(self, path) -> None:
        from repro.nn.serialization import atomic_replace

        atomic_replace(path, self.to_jsonl().encode("utf-8"))

    # -- merge ---------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry's metrics into this one (in place)."""
        for key, metric in other._metrics.items():
            mine = self._metrics.get(key)
            if mine is None:
                merged = _from_snapshot(metric.snapshot())
                self._metrics[key] = merged
            elif type(mine).kind != type(metric).kind:
                raise TypeError(
                    f"metric {key[0]!r} is a {type(mine).kind} here but a "
                    f"{type(metric).kind} in the merged registry"
                )
            else:
                mine.merge(metric)
        return self

    def merge_snapshot(self, snapshots: Iterable[dict]) -> "MetricsRegistry":
        """Merge an exported snapshot list (the ``result.json`` handoff)."""
        other = MetricsRegistry.from_snapshot(snapshots)
        return self.merge(other)

    @classmethod
    def from_snapshot(cls, snapshots: Iterable[dict]) -> "MetricsRegistry":
        registry = cls()
        for snap in snapshots:
            metric = _from_snapshot(snap)
            key = (metric.name, metric.labels)
            registry._metrics[key] = metric
        return registry

    @classmethod
    def from_jsonl(cls, text: str) -> "MetricsRegistry":
        snapshots = [json.loads(line) for line in text.splitlines()
                     if line.strip()]
        return cls.from_snapshot(snapshots)


def _from_snapshot(snap: dict):
    """Reconstruct a metric from its snapshot dict.

    Histograms come back without P² state (buckets/moments only), exactly
    like a merged histogram — which is what cross-process metrics are.
    """
    labels = tuple(sorted((k, str(v)) for k, v in snap.get("labels",
                                                           {}).items()))
    kind = snap["kind"]
    if kind == "counter":
        metric = Counter(snap["name"], labels)
        metric.value = float(snap["value"])
        return metric
    if kind == "gauge":
        metric = Gauge(snap["name"], labels)
        metric.value = float(snap["value"])
        return metric
    if kind == "histogram":
        metric = Histogram(snap["name"], labels, bounds=snap["bounds"])
        metric.count = int(snap["count"])
        metric.total = float(snap["sum"])
        metric.min = (float(snap["min"]) if snap["min"] is not None
                      else float("inf"))
        metric.max = (float(snap["max"]) if snap["max"] is not None
                      else float("-inf"))
        metric.bucket_counts = [int(c) for c in snap["bucket_counts"]]
        metric.exemplars = {
            int(bucket): {"value": float(exemplar["value"]),
                          "trace_id": str(exemplar["trace_id"])}
            for bucket, exemplar in snap.get("exemplars", {}).items()
        }
        metric._estimators = None
        return metric
    raise ValueError(f"unknown metric kind in snapshot: {kind!r}")


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry instrumented code records into."""
    return _REGISTRY  # effects: ok FORK_GLOBAL reason=swap point by design; workers install their own registry


def install_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry (worker isolation, tests); returns the
    previous one so callers can restore it."""
    global _REGISTRY
    previous = _REGISTRY  # effects: ok FORK_GLOBAL reason=swap point by design; workers install their own registry
    _REGISTRY = registry
    return previous
