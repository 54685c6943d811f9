"""Per-(workload, metric) verdicts between two sets of benchmark runs.

A set is a results file written by ``run.py --out``.  For each workload
and end-to-end metric, the parent set ``A`` and the changed set ``B`` are
compared by their medians against the metric's bound from
``BENCHMARK.json``:

* ``unresolved`` — either set's run-to-run spread (interquartile range
  over median) exceeds the bound, unless every run of B beats every run
  of A, which is ``better``;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better by more than A's own spread and B
  wins at least nine tenths of the runs paired by index;
* ``unchanged`` — everything else.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

__all__ = ["spread", "verdict", "compare_sets", "VERDICTS"]

VERDICTS = ("better", "unchanged", "worse", "unresolved")


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 below 2 runs)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(statistics.median(values))


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: float) -> str:
    """One of :data:`VERDICTS` for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(parent)
    worsening = sign * (statistics.median(change) - base) / abs(base)

    def beats(new: float, old: float) -> bool:
        return sign * (new - old) < 0

    if max(spread(parent), spread(change)) > bound:
        if all(beats(new, old) for new in change for old in parent):
            return "better"
        return "unresolved"
    if worsening > bound:
        return "worse"
    pairs = list(zip(parent, change))
    wins = sum(beats(new, old) for old, new in pairs)
    if -worsening > spread(parent) and wins >= 0.9 * len(pairs):
        return "better"
    return "unchanged"


def _values(results: dict) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values over the set's plain runs."""
    table: Dict[str, Dict[str, List[float]]] = {}
    for run in results["runs"]:
        if run["trace"]:
            continue
        metrics = table.setdefault(run["workload"], {})
        for name, metric in run["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return table


def compare_sets(parent: dict, change: dict, end_to_end: List[dict]
                 ) -> List[dict]:
    """One row per (workload, end-to-end metric) present in both sets."""
    old, new = _values(parent), _values(change)
    rows = []
    for workload in sorted(set(old) & set(new)):
        for metric in end_to_end:
            name = metric["name"]
            a, b = old[workload].get(name), new[workload].get(name)
            if not a or not b:
                continue
            median_a, median_b = statistics.median(a), statistics.median(b)
            rows.append({
                "workload": workload, "metric": name,
                "unit": metric["unit"],
                "parent": median_a, "change": median_b,
                "delta": (median_b - median_a) / abs(median_a),
                "spread": max(spread(a), spread(b)),
                "bound": metric["bound"],
                "verdict": verdict(a, b, metric["better"], metric["bound"]),
            })
    return rows
