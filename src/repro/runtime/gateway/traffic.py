"""Seeded synthetic traffic for the serving gateway.

The generator plays the *client* role of the ack protocol: per-service
coroutines submit a deterministic sine+noise stream point by point,
numbering each update with the per-service monotonic sequence the
gateway's durability story is built on.  Two properties make it the
chaos suite's measuring instrument:

* **at-least-once, never silent-drop** — a rejected submit (backpressure,
  throttle, shed, refuse) is retried with the same sequence after the
  suggested ``retry_after``; a delivery fault from a
  :meth:`~repro.runtime.faults.FaultInjector.plan_gateway_faults`
  schedule (delay / duplicate / drop) perturbs *when and how often* an
  update is transmitted, never *whether* it is eventually accepted.  The
  accepted set is therefore identical across fault seeds, which is what
  lets the chaos gate compare final worker state bitwise.
* **seeded all the way down** — streams are a pure function of
  ``(seed, service index, t)``, so every run submits the same floats.

:class:`ZScoreDetector` is the cheap, picklable scorer the gateway's
tests, benchmark and CLI share — the subject under test is the serving
machinery, not the model.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.detector import AnomalyDetector
from repro.runtime.faults import GatewayFault
from repro.runtime.gateway.gateway import ServingGateway

__all__ = ["ZScoreDetector", "TrafficReport", "make_fleet_series",
           "run_traffic"]

_MAX_ATTEMPTS = 1000    # per update, before giving up loudly
_RETRY_FLOOR = 0.005    # min sleep between retries, seconds
_DELAY_TICK = 0.01      # one `deliver_delayed` delay unit, seconds


class ZScoreDetector(AnomalyDetector):
    """Cheap deterministic per-feature z-score scorer (picklable)."""

    name = "gateway-zscore"

    def __init__(self):
        self._stats: Dict[str, tuple] = {}

    def fit(self, service_ids, train_series) -> "ZScoreDetector":
        for service_id, series in zip(service_ids, train_series):
            self.prepare_service(service_id, series)
        return self

    def prepare_service(self, service_id: str, train_series) -> None:
        series = np.atleast_2d(np.asarray(train_series, dtype=float))
        self._stats[service_id] = (series.mean(axis=0),
                                   series.std(axis=0) + 1e-9)

    def score(self, service_id: str, series: np.ndarray) -> np.ndarray:
        mean, std = self._stats[service_id]
        series = np.atleast_2d(np.asarray(series, dtype=float))
        return np.abs((series - mean) / std).max(axis=1)


def make_fleet_series(num_services: int, history_len: int, updates: int,
                      seed: int = 0) -> Dict[str, np.ndarray]:
    """Seeded sine+noise fleet: ``svc-i -> (history_len + updates, 2)``.

    The first ``history_len`` rows are the calibration history handed to
    the gateway; the rest is the live stream the traffic run submits.
    Pure function of its arguments — every run sees the same floats.
    """
    rng = np.random.default_rng(2000 + seed)
    length = history_len + updates
    fleet: Dict[str, np.ndarray] = {}
    for index in range(num_services):
        period = 16 + 4 * (index % 4)
        t = np.arange(length)
        base = np.stack([
            np.sin(2 * np.pi * t / period),
            0.5 * np.cos(2 * np.pi * t / (period * 2)),
        ], axis=1)
        base += 0.1 * rng.normal(size=base.shape)
        fleet[f"svc-{index}"] = base
    return fleet


@dataclass
class TrafficReport:
    """Outcome of one traffic run against a gateway."""

    services: int
    updates_per_service: int
    submitted: int = 0              # transmissions, incl. retries/dups
    accepted: int = 0               # first-time accepts (unique updates)
    duplicate_acks: int = 0         # accepts of an already-durable seq
    retries: int = 0                # re-submits after explicit rejection
    rejections: Dict[str, int] = field(default_factory=dict)
    faults_fired: Dict[str, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    final_sequence: Dict[str, int] = field(default_factory=dict)

    @property
    def points_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return float("nan")
        return self.accepted / self.elapsed_seconds

    def to_payload(self) -> dict:
        """JSON-ready summary (the benchmark's trajectory record)."""
        return {
            "services": self.services,
            "updates_per_service": self.updates_per_service,
            "submitted": self.submitted,
            "accepted": self.accepted,
            "duplicate_acks": self.duplicate_acks,
            "retries": self.retries,
            "rejections": dict(sorted(self.rejections.items())),
            "faults_fired": dict(sorted(self.faults_fired.items())),
            "elapsed_seconds": self.elapsed_seconds,
            "points_per_second": self.points_per_second,
            "final_sequence": dict(sorted(self.final_sequence.items())),
        }

    def summary_rows(self) -> List[tuple]:
        """Deterministic-first rows for ``repro.eval.format_table``."""
        payload = self.to_payload()
        rows = [
            ("services", payload["services"]),
            ("updates/service", payload["updates_per_service"]),
            ("accepted", payload["accepted"]),
            ("duplicate acks", payload["duplicate_acks"]),
            ("retries", payload["retries"]),
        ]
        for reason, count in payload["rejections"].items():
            rows.append((f"rejected[{reason}]", count))
        for kind, count in payload["faults_fired"].items():
            rows.append((f"fault[{kind}]", count))
        return rows


async def _drive_service(gateway: ServingGateway, service_id: str,
                         stream: np.ndarray,
                         fault: Optional[GatewayFault],
                         report: TrafficReport) -> None:
    """Submit one service's stream in order, surviving every rejection."""
    for index, observation in enumerate(stream):
        sequence = index + 1
        transmissions = 1
        if fault is not None and fault.fires_at(sequence):
            if fault.kind == "deliver_delayed":
                report.faults_fired["deliver_delayed"] = \
                    report.faults_fired.get("deliver_delayed", 0) + 1
                await asyncio.sleep(fault.delay_updates * _DELAY_TICK)
            elif fault.kind == "deliver_dropped":
                # The first transmission vanishes in the network; the
                # at-least-once client simply sends again.
                report.faults_fired["deliver_dropped"] = \
                    report.faults_fired.get("deliver_dropped", 0) + 1
                report.submitted += 1
            elif fault.kind == "deliver_duplicate":
                report.faults_fired["deliver_duplicate"] = \
                    report.faults_fired.get("deliver_duplicate", 0) + 1
                transmissions = 2
        accepted_once = False
        for _ in range(transmissions):
            attempts = 0
            while True:
                attempts += 1
                if attempts > _MAX_ATTEMPTS:
                    raise RuntimeError(
                        f"{service_id} seq {sequence}: not accepted after "
                        f"{_MAX_ATTEMPTS} attempts — the gateway is "
                        "stuck, not backpressured"
                    )
                report.submitted += 1
                result = await gateway.submit(service_id, observation,
                                              sequence)
                if result.accepted:
                    if result.reason == "duplicate":
                        report.duplicate_acks += 1
                    elif not accepted_once:
                        report.accepted += 1
                        accepted_once = True
                    break
                report.retries += 1
                report.rejections[result.reason] = \
                    report.rejections.get(result.reason, 0) + 1
                await asyncio.sleep(max(result.retry_after, _RETRY_FLOOR))
    report.final_sequence[service_id] = gateway.accepted_sequence(service_id)


async def run_traffic(gateway: ServingGateway,
                      streams: Dict[str, np.ndarray],
                      faults: Optional[Dict[str, GatewayFault]] = None
                      ) -> TrafficReport:
    """Drive every service's live stream through a started gateway.

    ``streams`` maps service ids to ``(updates, features)`` arrays —
    typically the tail of :func:`make_fleet_series` beyond the
    calibration history.  Delivery faults are executed client-side;
    ``worker_slow_start`` entries are ignored here (install them on the
    gateway with
    :meth:`~repro.runtime.gateway.gateway.ServingGateway.apply_fault_plan`
    before it starts).
    """
    faults = dict(faults or {})
    updates = max(len(stream) for stream in streams.values())
    report = TrafficReport(services=len(streams),
                           updates_per_service=updates)
    started = time.perf_counter()
    drivers = []
    for service_id, stream in sorted(streams.items()):
        fault = faults.get(service_id)
        if fault is not None and fault.kind == "worker_slow_start":
            fault = None
        drivers.append(_drive_service(gateway, service_id,
                                      np.atleast_2d(stream), fault, report))
    await asyncio.gather(*drivers)
    report.elapsed_seconds = time.perf_counter() - started
    return report
