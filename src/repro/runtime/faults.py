"""Deterministic fault injection for chaos-testing the serving runtime.

Everything is driven by one seeded generator, so a chaos run is exactly
reproducible from its seed: the same observations get corrupted the same
way and the same scoring calls raise.  Five fault families, matching what
production actually sees:

* **observation corruption** — NaN, ±Inf, gross spikes, and dropped rows
  (``corrupt`` returns ``None``) at a configurable rate;
* **scoring faults** — :class:`FaultyDetector` wraps any detector and
  raises :class:`InjectedFault` (or returns NaN scores) from ``score`` at
  a configurable rate;
* **storage faults** — :meth:`FaultInjector.truncate_file` chops the tail
  off a checkpoint/weights file, simulating a crash mid-write on a
  non-atomic filesystem;
* **worker faults** — :meth:`FaultInjector.plan_worker_faults` draws a
  deterministic schedule of training-worker failures (``worker_kill``,
  ``worker_hang``, ``nan_grad``) that the
  :class:`~repro.runtime.orchestrator.FleetOrchestrator` executes inside
  its worker processes;
* **gateway faults** — :meth:`FaultInjector.plan_gateway_faults` draws a
  deterministic schedule of network/queue-level delivery failures
  (``deliver_delayed``, ``deliver_duplicate``, ``deliver_dropped``,
  ``worker_slow_start``) that the serving gateway's traffic generator
  (:mod:`repro.runtime.gateway`) executes on the client side of the ack
  protocol, plus worker kills mid-traffic scheduled by the chaos suite.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.detector import AnomalyDetector

__all__ = ["InjectedFault", "FaultInjector", "FaultyDetector",
           "WorkerFault", "WORKER_FAULT_KINDS",
           "GatewayFault", "GATEWAY_FAULT_KINDS"]

_CORRUPTION_KINDS = ("nan", "inf", "spike", "drop")
# Multiplier applied to a corrupted feature for ``"spike"`` faults.
_SPIKE_SCALE = 1e6

WORKER_FAULT_KINDS = ("worker_kill", "worker_hang", "nan_grad")

GATEWAY_FAULT_KINDS = ("deliver_delayed", "deliver_duplicate",
                       "deliver_dropped", "worker_slow_start")


@dataclass(frozen=True)
class WorkerFault:
    """One scheduled worker-level training fault.

    ``worker_kill`` hard-exits the worker process at the ``epoch``
    boundary (SIGKILL semantics: no cleanup, no result file);
    ``worker_hang`` blocks there until the orchestrator's per-task timeout
    re-dispatches the job; ``nan_grad`` poisons the loss of batch
    ``batch`` of ``epoch`` so every gradient turns NaN.  ``repeat=False``
    models a transient fault (fires on the first attempt / first pass
    only); ``repeat=True`` models a persistent one that eventually drives
    the group to FAILED.
    """

    kind: str
    epoch: int = 1
    batch: int = 0
    repeat: bool = False

    def __post_init__(self):
        if self.kind not in WORKER_FAULT_KINDS:
            raise ValueError(
                f"unknown worker fault kind {self.kind!r}; "
                f"expected one of {WORKER_FAULT_KINDS}"
            )


@dataclass(frozen=True)
class GatewayFault:
    """One scheduled delivery-path fault for a gateway service stream.

    Delivery faults fire on the client side of the ack protocol at the
    service's ``at_update``-th submission (1-based): ``deliver_delayed``
    holds the submission back for ``delay_updates`` ticks of the traffic
    schedule before sending it; ``deliver_duplicate`` sends the same
    sequence twice (idempotent apply must absorb the second copy);
    ``deliver_dropped`` loses the first transmission so the at-least-once
    client must retry it.  ``worker_slow_start`` is worker-side: every
    (re)spawn of the shard serving this service stalls ``delay_seconds``
    before draining its queue, exercising backpressure during warm-up.
    ``repeat=True`` re-fires the fault on every subsequent multiple of
    ``at_update`` instead of once.
    """

    kind: str
    at_update: int = 1
    delay_updates: int = 2
    delay_seconds: float = 0.2
    repeat: bool = False

    def __post_init__(self):
        if self.kind not in GATEWAY_FAULT_KINDS:
            raise ValueError(
                f"unknown gateway fault kind {self.kind!r}; "
                f"expected one of {GATEWAY_FAULT_KINDS}"
            )
        if self.at_update < 1:
            raise ValueError("at_update must be >= 1")
        if self.delay_updates < 1:
            raise ValueError("delay_updates must be >= 1")
        if self.delay_seconds < 0.0:
            raise ValueError("delay_seconds must be >= 0")

    def fires_at(self, update_index: int) -> bool:
        """Whether this fault fires on the service's ``update_index``-th
        submission (1-based)."""
        if update_index < 1:
            return False
        if self.repeat:
            return update_index % self.at_update == 0
        return update_index == self.at_update


class InjectedFault(RuntimeError):
    """Raised from an injected scoring-path fault."""


class FaultInjector:
    """Seeded source of observation, scoring, and storage faults.

    Parameters
    ----------
    seed:
        Seeds the private generator; equal seeds give equal fault trains.
    corrupt_prob:
        Per-observation probability of corruption (the paper-motivated
        chaos suite uses 0.02).
    raise_prob:
        Per-scoring-call probability that a wrapped detector raises
        (1/200 in the chaos suite).
    nan_score_prob:
        Per-scoring-call probability that a wrapped detector returns NaN
        scores instead of raising — the sneakier failure mode.
    kinds:
        Which corruption kinds to draw from (subset of
        ``("nan", "inf", "spike", "drop")``).
    """

    def __init__(self, seed: int = 0, corrupt_prob: float = 0.02,
                 raise_prob: float = 1.0 / 200.0,
                 nan_score_prob: float = 0.0,
                 kinds: Sequence[str] = _CORRUPTION_KINDS):
        unknown = sorted(set(kinds) - set(_CORRUPTION_KINDS))
        if unknown:
            raise ValueError(f"unknown corruption kinds: {unknown}")
        if not kinds:
            raise ValueError("need at least one corruption kind")
        for name, prob in (("corrupt_prob", corrupt_prob),
                           ("raise_prob", raise_prob),
                           ("nan_score_prob", nan_score_prob)):
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        self.seed = seed
        self.corrupt_prob = corrupt_prob
        self.raise_prob = raise_prob
        self.nan_score_prob = nan_score_prob
        self.kinds = tuple(kinds)
        self._rng = np.random.default_rng(seed)
        self.observations_corrupted = 0
        self.scoring_faults = 0
        self.worker_faults_planned = 0
        self.gateway_faults_planned = 0

    # ------------------------------------------------------------------
    # Observation faults
    # ------------------------------------------------------------------
    def corrupt(self, observation: np.ndarray) -> Optional[np.ndarray]:
        """Maybe corrupt one observation; ``None`` models a dropped sample."""
        if self._rng.random() >= self.corrupt_prob:
            return observation
        self.observations_corrupted += 1
        kind = self.kinds[self._rng.integers(len(self.kinds))]
        if kind == "drop":
            return None
        observation = np.asarray(observation, dtype=float).reshape(-1).copy()
        feature = int(self._rng.integers(observation.size))
        if kind == "nan":
            observation[feature] = np.nan
        elif kind == "inf":
            observation[feature] = np.inf if self._rng.random() < 0.5 else -np.inf
        else:  # spike
            sign = 1.0 if self._rng.random() < 0.5 else -1.0
            observation[feature] = sign * _SPIKE_SCALE * (
                1.0 + abs(observation[feature])
            )
        return observation

    # ------------------------------------------------------------------
    # Scoring faults
    # ------------------------------------------------------------------
    def before_score(self) -> Optional[str]:
        """Draw one scoring fault: ``"raise"``, ``"nan"``, or ``None``."""
        draw = self._rng.random()
        if draw < self.raise_prob:
            self.scoring_faults += 1
            return "raise"
        if draw < self.raise_prob + self.nan_score_prob:
            self.scoring_faults += 1
            return "nan"
        return None

    def wrap_detector(self, detector: AnomalyDetector) -> "FaultyDetector":
        """Wrap a fitted detector so its scoring path injects faults."""
        return FaultyDetector(detector, self)

    # ------------------------------------------------------------------
    # Worker faults (training orchestrator)
    # ------------------------------------------------------------------
    def plan_worker_faults(self, group_ids: Sequence[str],
                           fault_rate: float, epochs: int,
                           kinds: Sequence[str] = WORKER_FAULT_KINDS
                           ) -> Dict[str, WorkerFault]:
        """Draw a deterministic fault schedule for a fleet training run.

        Each group in ``group_ids`` (order matters — it is part of the
        seeded draw) is assigned a :class:`WorkerFault` with probability
        ``fault_rate``.  Fault epochs are drawn in ``[1, epochs)`` when
        possible so a checkpoint exists before the fault fires; with
        ``epochs == 1`` they land on epoch 1 / batch 0.  Every planned
        fault is transient (``repeat=False``).
        """
        unknown = sorted(set(kinds) - set(WORKER_FAULT_KINDS))
        if unknown:
            raise ValueError(f"unknown worker fault kinds: {unknown}")
        if not kinds:
            raise ValueError("need at least one worker fault kind")
        if not 0.0 <= fault_rate <= 1.0:
            raise ValueError("fault_rate must be in [0, 1]")
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        plan: Dict[str, WorkerFault] = {}
        for group_id in group_ids:
            if self._rng.random() >= fault_rate:
                continue
            kind = kinds[int(self._rng.integers(len(kinds)))]
            if kind == "nan_grad":
                # Batch-level fault: epoch in [0, epochs) (0-based loop
                # epoch), batch 0 — every group has at least one batch.
                epoch = int(self._rng.integers(epochs))
                fault = WorkerFault(kind, epoch=epoch, batch=0)
            else:
                # Epoch-boundary fault: fires after `epoch` completed
                # epochs, i.e. in [1, epochs].
                epoch = 1 + int(self._rng.integers(epochs))
                fault = WorkerFault(kind, epoch=epoch)
            plan[group_id] = fault
            self.worker_faults_planned += 1
        return plan

    # ------------------------------------------------------------------
    # Gateway faults (serving gateway delivery path)
    # ------------------------------------------------------------------
    def plan_gateway_faults(self, service_ids: Sequence[str],
                            fault_rate: float, updates: int
                            ) -> Dict[str, "GatewayFault"]:
        """Draw a deterministic delivery-fault schedule for a traffic run.

        The mirror of :meth:`plan_worker_faults` for the gateway's ack
        protocol: each service in ``service_ids`` (order matters — it is
        part of the seeded draw) is assigned a :class:`GatewayFault` with
        probability ``fault_rate``, its kind drawn from
        :data:`GATEWAY_FAULT_KINDS`, firing once at an update index drawn
        in ``[1, updates]`` with :class:`GatewayFault`'s default delays.
        The traffic generator executes delivery faults client-side;
        ``worker_slow_start`` is handed to the gateway's worker spawn
        path.
        """
        if not 0.0 <= fault_rate <= 1.0:
            raise ValueError("fault_rate must be in [0, 1]")
        if updates < 1:
            raise ValueError("updates must be >= 1")
        plan: Dict[str, GatewayFault] = {}
        for service_id in service_ids:
            if self._rng.random() >= fault_rate:
                continue
            kind = GATEWAY_FAULT_KINDS[
                int(self._rng.integers(len(GATEWAY_FAULT_KINDS)))]
            at_update = 1 + int(self._rng.integers(updates))
            plan[service_id] = GatewayFault(kind, at_update=at_update)
            self.gateway_faults_planned += 1
        return plan

    # ------------------------------------------------------------------
    # Storage faults
    # ------------------------------------------------------------------
    def truncate_file(self, path: str | Path,
                      keep_fraction: float = 0.5) -> Path:
        """Chop the tail off a file in place (crash-mid-write simulation)."""
        if not 0.0 <= keep_fraction < 1.0:
            raise ValueError("keep_fraction must be in [0, 1)")
        path = Path(path)
        size = path.stat().st_size
        keep = int(size * keep_fraction)
        with open(path, "rb+") as handle:
            handle.truncate(keep)
            handle.flush()
            os.fsync(handle.fileno())
        return path


class FaultyDetector(AnomalyDetector):
    """Proxy that injects faults into another detector's scoring path.

    Besides the injector's random per-call faults, ``fail_services`` is a
    mutable set of service ids whose scoring *always* raises, and
    ``nan_services`` one whose scoring always returns NaN at the newest
    timestamp — the knobs for scripting sustained outages and sustained
    silent corruption (down for steps 100..260, say) on top of the random
    transient faults.
    """

    def __init__(self, inner: AnomalyDetector, injector: FaultInjector):
        self.inner = inner
        self.injector = injector
        self.name = f"faulty({inner.name})"
        self.fail_services: set = set()
        self.nan_services: set = set()

    def fit(self, service_ids, train_series) -> "FaultyDetector":
        self.inner.fit(service_ids, train_series)
        return self

    def prepare_service(self, service_id: str, train_series) -> None:
        self.inner.prepare_service(service_id, train_series)

    def score(self, service_id: str, series: np.ndarray) -> np.ndarray:
        if service_id in self.fail_services:
            self.injector.scoring_faults += 1
            raise InjectedFault(
                f"injected outage for service {service_id!r}"
            )
        fault = self.injector.before_score()
        if fault == "raise":
            raise InjectedFault(
                f"injected scoring fault for service {service_id!r}"
            )
        scores = self.inner.score(service_id, series)
        if fault == "nan" or service_id in self.nan_services:
            if service_id in self.nan_services:
                self.injector.scoring_faults += 1
            scores = np.asarray(scores, dtype=float).copy()
            scores[-1] = np.nan
        return scores
