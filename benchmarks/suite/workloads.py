"""The three seeded workloads, run on the real ``MaceDetector``.

All three use the ``smd`` profile, generated from the run's seed at the
input sizes of :class:`Sizes`.  Each workload has three parts:

* ``setup(seed, sizes)`` builds everything timing needs (dataset, fitted
  detector, calibrated runtime) and is timed as ``setup_s``;
* ``op(state)`` is one unit of measured work and returns an
  :class:`OpRecord`;
* ``check(state, records, checks)`` verifies every operation's output.

:func:`run` repeats ``op`` for the requested number of seconds, either
plain (end-to-end metrics, at reference machine speed, see ``speed.py``)
or under the layer wrappers of ``layers.py`` (per-layer metrics).
"""

from __future__ import annotations

import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from layers import LAYER_METRICS, MODEL_TARGETS
from speed import BATCHED, PER_CALL, Calibrator
from tracer import Tracer, installed, tail_percentile
from repro.core import MaceConfig, MaceDetector
from repro.data import load_dataset
from repro.eval import best_f1_threshold
from repro.runtime import ServingRuntime

__all__ = ["WORKLOADS", "Sizes", "Checks", "OpRecord", "RunResult", "run"]

SETUP_REPS = 3          # set-ups per plain run; setup_s is their median
SETUP_MIN_S = 2.0       # ... repeated further while they total less
MIN_OPS = 3             # measured operations per plain run, at least
STREAM_BLOCK = 256      # updates per stream throughput sample


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the workloads (the self-tests pass tiny ones)."""

    services: int = 10      # one unified-model group of the paper's protocol
    length: int = 1024      # train and test points per service
    train_epochs: int = 2   # the measured fit on train
    setup_epochs: int = 3   # the detector score and stream set up
    served: int = 8         # services served by stream
    history: int = 512      # calibration rows per served service (train tail)


@dataclass
class OpRecord:
    """One measured operation."""

    wall_s: float
    points: int
    payload: object = None


class Checks:
    """Operations attempted and the ones failing a check, with reasons."""

    def __init__(self):
        self.attempted = set()
        self.failing: Dict[object, str] = {}    # operation -> first reason

    def check(self, operation, ok: bool, reason: str) -> None:
        self.attempted.add(operation)
        if not ok:
            self.failing.setdefault(operation, reason)

    def problems(self) -> List[str]:
        return [f"{reason}: {count} operation(s)" for reason, count
                in sorted(Counter(self.failing.values()).items())]


@dataclass
class RunResult:
    attempted: int
    failed: int
    metrics: Dict[str, float]
    details: Dict[str, object]
    problems: List[str]


def _dataset(seed: int, sizes: Sizes):
    return load_dataset("smd", num_services=sizes.services,
                        train_length=sizes.length, test_length=sizes.length,
                        seed=seed)


def _fit(dataset, epochs: int) -> MaceDetector:
    return MaceDetector(MaceConfig(epochs=epochs)).fit(
        [service.service_id for service in dataset],
        [service.train for service in dataset])


class Workload:
    name = ""
    # The calibration kernel whose slowdown under host contention
    # matches this workload's (see speed.py).
    kernel = PER_CALL

    def setup(self, seed: int, sizes: Sizes):
        raise NotImplementedError

    def warm_up(self, state) -> None:
        """Untimed work before the first measured operation."""

    def op(self, state) -> OpRecord:
        raise NotImplementedError

    def check(self, state, records: List[OpRecord], checks: Checks) -> None:
        raise NotImplementedError

    def points_per_s(self, records: List[OpRecord]) -> float:
        """Median over operations of points per wall second."""
        return statistics.median(r.points / r.wall_s for r in records)

    def layer_metrics(self, state, records: List[OpRecord],
                      tracer: Tracer) -> Dict[str, float]:
        return {}


class Train(Workload):
    name = "train"
    kernel = BATCHED

    def setup(self, seed: int, sizes: Sizes):
        return {"dataset": _dataset(seed, sizes), "epochs": sizes.train_epochs}

    def op(self, state) -> OpRecord:
        dataset, epochs = state["dataset"], state["epochs"]
        started = time.perf_counter()
        detector = _fit(dataset, epochs)
        wall = time.perf_counter() - started
        points = sum(len(s.train) for s in dataset) * epochs
        return OpRecord(wall, points, list(detector.history.epoch_losses))

    def check(self, state, records, checks) -> None:
        first = records[0].payload
        for index, record in enumerate(records):
            history = record.payload
            checks.check(index, len(history) == state["epochs"]
                         and np.isfinite(history).all(),
                         "fit with a missing or non-finite epoch loss")
            checks.check(index, history == first,
                         "fit whose loss history differs bitwise from the "
                         "first fit")


class Score(Workload):
    name = "score"
    kernel = BATCHED

    def setup(self, seed: int, sizes: Sizes):
        dataset = _dataset(seed, sizes)
        return {"dataset": dataset,
                "detector": _fit(dataset, sizes.setup_epochs)}

    def warm_up(self, state) -> None:
        """One untimed pass: the reference scores every op must repeat."""
        dataset, detector = state["dataset"], state["detector"]
        state["reference"] = [detector.score(s.service_id, s.test)
                              for s in dataset]
        state["next"] = 0

    def op(self, state) -> OpRecord:
        index = state["next"] % len(state["dataset"])
        service = state["dataset"][index]
        state["next"] += 1
        started = time.perf_counter()
        scores = state["detector"].score(service.service_id, service.test)
        wall = time.perf_counter() - started
        return OpRecord(wall, len(service.test), (index, scores))

    def check(self, state, records, checks) -> None:
        dataset, reference = state["dataset"], state["reference"]
        for operation, record in enumerate(records):
            index, scores = record.payload
            checks.check(operation,
                         scores.shape == (len(dataset[index].test),)
                         and np.isfinite(scores).all(),
                         "score series non-finite or mis-shaped")
            checks.check(operation, np.array_equal(scores, reference[index]),
                         "score series differs bitwise from the warm-up "
                         "pass")
        state["pa_f1"] = float(np.mean([
            best_f1_threshold(scores, service.test_labels).metrics.f1
            for service, scores in zip(dataset, reference)]))

    def layer_metrics(self, state, records, tracer):
        return {"eval.pa_f1": state["pa_f1"]}


class Stream(Workload):
    name = "stream"

    def setup(self, seed: int, sizes: Sizes):
        dataset = _dataset(seed, sizes)
        detector = _fit(dataset, sizes.setup_epochs)
        runtime = ServingRuntime(detector, window=40, q=1e-3)
        served = dataset.services[:sizes.served]
        for service in served:
            runtime.start_service(service.service_id,
                                  service.train[-sizes.history:])
        return {"detector": detector, "runtime": runtime, "served": served,
                "next": 0, "updates": {s.service_id: [] for s in served}}

    def _update(self, state) -> OpRecord:
        served = state["served"]
        service = served[state["next"] % len(served)]
        row = service.test[(state["next"] // len(served)) % len(service.test)]
        state["next"] += 1
        runtime = state["runtime"]
        started = time.perf_counter()
        outcome = runtime.update(service.service_id, row)
        wall = time.perf_counter() - started
        sid = service.service_id
        # The buffered row, not the raw one: the sanitizer may clip it.
        state["updates"][sid].append((runtime.current_window(sid)[-1].copy(),
                                      outcome.score, outcome.used_fallback))
        return OpRecord(wall, 1)

    def warm_up(self, state) -> None:
        for _ in state["served"]:
            self._update(state)

    def op(self, state) -> OpRecord:
        return self._update(state)

    def points_per_s(self, records) -> float:
        """Median over blocks of consecutive updates of updates per second
        of update time: sustained rate, tail included, bursts excluded."""
        blocks = [records[start:start + STREAM_BLOCK]
                  for start in range(0, len(records), STREAM_BLOCK)]
        full = [block for block in blocks if len(block) == STREAM_BLOCK]
        return statistics.median(len(block) / sum(r.wall_s for r in block)
                                 for block in full or blocks[:1])

    def check(self, state, records, checks) -> None:
        window = state["runtime"].window
        trainer = state["detector"].trainer
        compared = bitwise = fallbacks = 0
        for sid, updates in state["updates"].items():
            for index, (_, _, fallback) in enumerate(updates):
                checks.check((sid, index), not fallback,
                             "update answered by the fallback scorer")
                fallbacks += fallback
            if len(updates) < window:
                continue
            # From the window-th update on, the window holds test rows
            # only; its streamed score must match the batched forward.
            rows = np.stack([row for row, _, _ in updates])
            windows = np.lib.stride_tricks.sliding_window_view(
                rows, window, axis=0).transpose(0, 2, 1)
            batched = trainer.window_errors(
                sid, np.ascontiguousarray(windows))[:, -1]
            for index, expected in enumerate(batched, start=window - 1):
                streamed = updates[index][1]
                checks.check((sid, index),
                             np.isclose(streamed, expected, rtol=1e-9,
                                        atol=0.0),
                             "streamed score differs from the batched "
                             "forward")
                compared += 1
                bitwise += streamed == expected
        state["bitwise"] = bitwise / compared if compared else 0.0
        state["fallback_frac"] = fallbacks / state["next"]

    def layer_metrics(self, state, records, tracer):
        metrics = {"core.stream_batch_bitwise": state["bitwise"],
                   "runtime.fallback_frac": state["fallback_frac"]}
        metrics.update(distribution("runtime.update",
                                    [r.wall_s for r in records]))
        return metrics


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (Train(), Score(), Stream())}


def distribution(prefix: str, seconds: List[float]) -> Dict[str, float]:
    """p50 and the reportable tail of a latency sample, in ms."""
    tail = tail_percentile(seconds)
    return {f"{prefix}_p50_ms": (statistics.median(seconds) * 1e3
                                 if seconds else 0.0),
            f"{prefix}_tail_ms": tail[1] * 1e3 if tail else 0.0,
            f"{prefix}_tail_pct": tail[0] if tail else 0.0,
            f"{prefix}_samples": float(len(seconds))}


def _function_metrics(tracer: Tracer, keys, ops: int) -> Dict[str, float]:
    """Per-operation calls and self seconds of every wrapped key."""
    metrics = {}
    for key in keys:
        metrics[f"{key}.calls"] = tracer.calls.get(key, 0) / ops
        metrics[f"{key}.self_s"] = tracer.self_s.get(key, 0.0) / ops
    calls = tracer.calls.get("core.window_errors", 0)
    metrics["core.window_errors.windows_per_call"] = (
        tracer.counters.get("core.window_errors.windows", 0.0) / calls
        if calls else 0.0)
    return metrics


def _timebox(workload: Workload, state, seconds: float, min_ops: int,
             calibrator: Optional[Calibrator] = None) -> List[OpRecord]:
    records: List[OpRecord] = []
    deadline = time.perf_counter() + seconds
    while len(records) < min_ops or time.perf_counter() < deadline:
        records.append(workload.op(state))
        if calibrator is not None:
            calibrator.keep_up(records[-1].wall_s)
    return records


def _timed_setups(workload: Workload, seed: int, sizes: Sizes,
                  calibrator: Calibrator):
    times, state = [], None
    while len(times) < SETUP_REPS or sum(times) < SETUP_MIN_S:
        started = time.perf_counter()
        state = workload.setup(seed, sizes)
        times.append(time.perf_counter() - started)
        calibrator.keep_up(times[-1])
    return state, times


def peak_rss_mb() -> float:
    """Peak RSS of this process (every workload runs in one), in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name: str, seed: int, seconds: float, trace: bool,
        sizes: Sizes = Sizes()) -> RunResult:
    """One run of one workload: plain (end-to-end) or traced (per-layer)."""
    workload = WORKLOADS[name]
    checks = Checks()
    if not trace:
        calibrator = Calibrator(workload.kernel)
        state, setup_times = _timed_setups(workload, seed, sizes, calibrator)
        workload.warm_up(state)
        records = _timebox(workload, state, seconds, MIN_OPS, calibrator)
        workload.check(state, records, checks)
        measured = {
            "setup_s": statistics.median(setup_times),
            "points_per_s": workload.points_per_s(records),
            "op_ms": statistics.median(r.wall_s for r in records) * 1e3,
        }
        # Times and rates at reference machine speed (see speed.py).
        factor = calibrator.factor()
        metrics = {
            "setup_s": measured["setup_s"] * factor,
            "peak_rss_mb": peak_rss_mb(),
            "points_per_s": measured["points_per_s"] / factor,
            "op_ms": measured["op_ms"] * factor,
        }
        details = {"ops": len(records), "setup_reps": len(setup_times),
                   "measured": measured, "speed_factor": factor,
                   "kernel_samples": len(calibrator.samples)}
        details.update({key: state[key] for key in ("pa_f1", "bitwise")
                        if key in state})
        return RunResult(len(checks.attempted), len(checks.failing),
                         metrics, details, checks.problems())

    state = workload.setup(seed, sizes)
    workload.warm_up(state)
    plain = _timebox(workload, state, seconds / 2, 1)
    tracer = Tracer()
    with installed(tracer, MODEL_TARGETS):
        traced = _timebox(workload, state, seconds / 2, 1)
    workload.check(state, plain + traced, checks)
    ops = len(traced)
    wall = sum(r.wall_s for r in traced)
    keys = [t.key for t in MODEL_TARGETS]
    metrics = dict.fromkeys(LAYER_METRICS, 0.0)
    metrics.update(_function_metrics(tracer, keys, ops))
    metrics.update(workload.layer_metrics(state, traced, tracer))
    metrics.update({
        "wall_s": wall / ops,
        "unattributed_s": (wall - tracer.top_level_s) / ops,
        "trace_overhead_frac": (statistics.median(r.wall_s for r in traced)
                                / statistics.median(r.wall_s for r in plain)
                                - 1.0),
        "ops": float(ops),
    })
    attributed = sum(tracer.self_s.values()) + wall - tracer.top_level_s
    checks.check("trace accounting", abs(attributed - wall) <= 0.05 * wall,
                 "self times plus unattributed miss the wall time by >5%")
    details = {"ops": ops, "plain_ops": len(plain),
               "attributed_s": attributed, "traced_wall_s": wall}
    return RunResult(len(checks.attempted), len(checks.failing), metrics,
                     details, checks.problems())
