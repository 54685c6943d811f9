"""Observability overhead gate (``make obs-overhead``).

The telemetry layer ships always-instrumented: every trainer batch/epoch
passes through ``span()`` and the always-on metrics registry even when
tracing is disabled (the default).  This gate times the seeded 2-epoch
trainer run as shipped against the *same* run with the span call sites
no-op'd out — paired rounds, order alternating, median of per-round
differences — and fails when the disabled-path instrumentation costs
more than the budget: 3% relative, or at most a 10 ms absolute floor so
scheduler jitter on a fast run cannot trip the ratio.  The floor makes
the effective budget ``max(3%, 10 ms / baseline)`` — about 18% on a
0.056 s fit (2-vCPU host, one BLAS thread) — and the verdict line prints
it.  Fifteen paired rounds keep the median steady when a neighbour
process slows a few of them.

It prints one verdict line, exits non-zero when over budget, and writes
no file.  Per-layer and serving-latency numbers come from the benchmark
suite's traced runs (``benchmarks/suite/run.py --trace``).

Run directly: ``PYTHONPATH=src python benchmarks/bench_obs_overhead.py``.
"""

from __future__ import annotations

import contextlib
import gc
import time

import repro.core.trainer as trainer_mod
from repro.core import MaceConfig, MaceDetector
from repro.data import load_dataset
from repro.obs.tracing import disable_tracing

REPEATS = 15           # paired rounds (one run per arm each)
RELATIVE_BUDGET = 0.03  # relative budget; ABSOLUTE_FLOOR can widen it
ABSOLUTE_FLOOR = 0.010  # seconds; scheduler jitter can exceed 3% of a fast run


def _config() -> MaceConfig:
    return MaceConfig(window=40, num_bases=4, channels=2, epochs=2,
                      train_stride=4, gamma_time=3, gamma_freq=3,
                      kernel_freq=4, kernel_time=3, subspace_stride=8,
                      batch_size=32)


def _dataset():
    return load_dataset("smd", num_services=2, train_length=1024,
                        test_length=384, seed=7)


def _fit_once(dataset) -> float:
    """One seeded 2-epoch unified fit; returns wall seconds.

    The GC is paused for the timed region: the fit allocates heavily and
    a collection landing in one arm but not the other would swamp the
    few-microsecond effect being measured.
    """
    detector = MaceDetector(_config())
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        detector.fit([s.service_id for s in dataset],
                     [s.train for s in dataset])
        return time.perf_counter() - started
    finally:
        gc.enable()


@contextlib.contextmanager
def _spans_stripped():
    """Temporarily no-op the trainer's span call sites.

    The trainer binds ``span`` by name at import, so the un-instrumented
    baseline is recovered by swapping that binding for a null context
    manager — the remaining difference to the shipped code is exactly
    the disabled-path cost the gate is budgeting.
    """
    @contextlib.contextmanager
    def _null_span(name, **attrs):
        yield

    original = trainer_mod.span
    trainer_mod.span = _null_span
    try:
        yield
    finally:
        trainer_mod.span = original


def _median(values) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def measure_overhead(dataset) -> dict:
    """Paired comparison: shipped (obs disabled) vs span-stripped.

    Both arms run adjacently within each round (order alternating, so
    allocator/cache drift cannot systematically favour either) and the
    overhead estimate is the **median of per-round differences** — a
    load spike hitting one round cannot swing the verdict the way it
    swings a best-of-N of absolute times.
    """
    disable_tracing()
    shipped, stripped = [], []
    _fit_once(dataset)  # warm caches (imports, dataset windows) off-clock

    def run_stripped():
        with _spans_stripped():
            stripped.append(_fit_once(dataset))

    def run_shipped():
        shipped.append(_fit_once(dataset))

    for round_index in range(REPEATS):
        first, second = ((run_stripped, run_shipped) if round_index % 2 == 0
                         else (run_shipped, run_stripped))
        first()
        second()
    diffs = [s - b for s, b in zip(shipped, stripped)]
    delta = _median(diffs)
    baseline = _median(stripped)
    ratio = 1.0 + delta / baseline if baseline > 0 else 1.0
    effective = (max(RELATIVE_BUDGET, ABSOLUTE_FLOOR / baseline)
                 if baseline > 0 else RELATIVE_BUDGET)
    return {
        "baseline_seconds": baseline,
        "delta_seconds": delta,
        "overhead_ratio": ratio,
        "effective_budget": effective,
        "passed": (ratio - 1.0) <= RELATIVE_BUDGET or delta <= ABSOLUTE_FLOOR,
    }


def main() -> int:
    overhead = measure_overhead(_dataset())
    verdict = "ok" if overhead["passed"] else "FAIL"
    print(f"{verdict}: disabled-path overhead "
          f"{(overhead['overhead_ratio'] - 1.0) * 100:+.2f}% "
          f"({overhead['delta_seconds'] * 1e3:+.1f} ms median paired diff "
          f"over {overhead['baseline_seconds']:.3f}s baseline, "
          f"{REPEATS} rounds); effective budget "
          f"{overhead['effective_budget']:.1%} = max({RELATIVE_BUDGET:.0%}, "
          f"{ABSOLUTE_FLOOR * 1e3:.0f} ms / baseline)")
    return 0 if overhead["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
