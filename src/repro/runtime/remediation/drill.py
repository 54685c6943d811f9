"""Seeded end-to-end remediation drills: inject faults, prove convergence.

A drill builds a synthetic fleet, wires a :class:`ServingRuntime` +
:class:`RemediationController` pair around a fault-wrapped detector, and
scripts three production failure shapes against a seeded subset of
services:

* ``input_corruption`` — every observation in the fault window is dropped
  in transport, so the sanitizer fabricates rows until its gap guard
  degrades the stream (root cause: data quality);
* ``model_outage`` — the detector's scoring path raises for the whole
  window, tripping the breaker (root cause: transient model outage);
* ``model_nan`` — scoring silently returns NaN instead of raising — the
  sneakier outage with the same breaker-visible symptom.

On top of the scenario, :meth:`FaultInjector.plan_action_faults` breaks
the *remediation machinery itself* for a seeded slice of the faulted
services: actions fail outright, hang until their declared timeout, or
let the service relapse mid-verification.  The drill's claim — the one
``make drill`` gates on — is that the loop still converges: at least 90%
of faulted services end the run HEALTHY with a verified, resolved
incident, the rest escalate cleanly to a human, and the policy engine's
guardrail self-audit records zero violations.

Everything is derived from ``DrillConfig.seed`` and the tick counter, and
the optional event log is written with a tick-based clock, so two runs of
the same config produce byte-identical JSONL — the property the
reproducibility test asserts bit-for-bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs.events import EventLog, get_event_log, install_event_log
from repro.obs.metrics import MetricsRegistry
from repro.runtime.faults import ActionFault, FaultInjector, FaultyDetector
from repro.runtime.gateway.traffic import ZScoreDetector
from repro.runtime.health import BreakerConfig, HealthState
from repro.runtime.remediation.controller import (
    IncidentState,
    RemediationConfig,
    RemediationController,
)
from repro.runtime.remediation.diagnosis import DiagnosisConfig
from repro.runtime.remediation.policy import PolicyConfig
from repro.runtime.serving import ServingRuntime

__all__ = ["SCENARIOS", "DrillConfig", "DrillRow", "DrillReport",
           "run_drill"]

SCENARIOS = ("input_corruption", "model_outage", "model_nan")


@dataclass(frozen=True)
class DrillConfig:
    """One drill's shape: fleet size, fault mix, and loop thresholds.

    ``fault_rate`` is the fraction of services assigned a fault scenario
    (the acceptance gate requires at least 0.3); ``action_fault_rate``
    the probability that a *faulted* service's remediation path is itself
    broken.  ``fault_start``/``fault_duration`` position the scripted
    fault window inside the ``ticks``-long run; the defaults leave enough
    post-fault runway for ladder climbs and verification dwells even when
    the first two rungs are sabotaged.
    """

    seed: int = 0
    num_services: int = 8
    history_len: int = 320
    ticks: int = 360
    window: int = 40
    fault_rate: float = 0.6
    action_fault_rate: float = 0.3
    relapse_ticks: int = 8
    fault_start: int = 60
    fault_duration: int = 48
    events_path: Optional[str] = None

    def __post_init__(self):
        if self.num_services < 1:
            raise ValueError("num_services must be >= 1")
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError("fault_rate must be in [0, 1]")
        if not 0.0 <= self.action_fault_rate <= 1.0:
            raise ValueError("action_fault_rate must be in [0, 1]")
        if self.history_len < 2 * self.window:
            raise ValueError("history_len must cover 2x the window")
        if self.fault_start < self.window:
            raise ValueError("fault_start must leave a warm-up window")
        if self.fault_start + self.fault_duration >= self.ticks:
            raise ValueError("fault window must end before the run does")


@dataclass
class DrillRow:
    """Per-service drill outcome."""

    service_id: str
    scenario: str                 # "" for control (unfaulted) services
    action_fault: str             # "" when the remediation path was clean
    incidents: int
    resolved: int
    escalated: int
    actions: List[Tuple[str, str]] = field(default_factory=list)
    final_state: str = HealthState.HEALTHY.value
    converged: bool = False

    def to_payload(self) -> dict:
        return {
            "service_id": self.service_id,
            "scenario": self.scenario,
            "action_fault": self.action_fault,
            "incidents": self.incidents,
            "resolved": self.resolved,
            "escalated": self.escalated,
            "actions": [list(pair) for pair in self.actions],
            "final_state": self.final_state,
            "converged": self.converged,
        }


@dataclass
class DrillReport:
    """The whole drill, summarised for gates and humans.

    ``converged_fraction`` is measured over *faulted* services only —
    control services never open incidents, so counting them would
    flatter the loop.
    """

    seed: int
    rows: List[DrillRow]
    faulted: int
    converged: int
    escalated: int
    policy: dict
    controller: dict

    @property
    def converged_fraction(self) -> float:
        if self.faulted == 0:
            return 1.0
        return self.converged / self.faulted

    @property
    def violations(self) -> int:
        return int(self.policy.get("violations", 0))

    def to_payload(self) -> dict:
        return {
            "seed": self.seed,
            "faulted": self.faulted,
            "converged": self.converged,
            "escalated": self.escalated,
            "converged_fraction": round(self.converged_fraction, 6),
            "violations": self.violations,
            "policy": self.policy,
            "controller": self.controller,
            "rows": [row.to_payload() for row in self.rows],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True, indent=2)

    def to_table(self) -> str:
        """Fixed-width per-service summary (the CLI's default view)."""
        header = (f"{'service':<10} {'scenario':<18} {'action_fault':<17} "
                  f"{'incidents':>9} {'resolved':>8} {'escalated':>9} "
                  f"{'final':<12} converged")
        lines = [header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row.service_id:<10} {row.scenario or '-':<18} "
                f"{row.action_fault or '-':<17} {row.incidents:>9} "
                f"{row.resolved:>8} {row.escalated:>9} "
                f"{row.final_state:<12} "
                f"{'yes' if row.converged else 'NO'}")
        lines.append("-" * len(header))
        lines.append(
            f"faulted {self.faulted}  converged {self.converged} "
            f"({self.converged_fraction:.0%})  escalated {self.escalated}  "
            f"guardrail violations {self.violations}")
        return "\n".join(lines)


def _make_fleet(config: DrillConfig) -> Dict[str, np.ndarray]:
    """Seeded sine+noise fleet; index -> full (history + live) series."""
    rng = np.random.default_rng(1000 + config.seed)
    length = config.history_len + config.ticks
    fleet: Dict[str, np.ndarray] = {}
    for index in range(config.num_services):
        period = 16 + 4 * (index % 4)
        t = np.arange(length)
        base = np.stack([
            np.sin(2 * np.pi * t / period),
            0.5 * np.cos(2 * np.pi * t / (period * 2)),
        ], axis=1)
        base += 0.1 * rng.normal(size=base.shape)
        fleet[f"svc-{index}"] = base
    return fleet


def _drill_remediation_config() -> RemediationConfig:
    """Loop thresholds sized to the drill's fault window and tick budget."""
    return RemediationConfig(
        diagnosis=DiagnosisConfig(window=48),
        policy=PolicyConfig(cooldown_ticks=16, max_concurrent_actions=2,
                            flap_window=96, flap_threshold=12),
        verify_patience=48,
        verify_dwell=8,
        degraded_patience=20,
        history_rows=160,
    )


def _drill_breaker_config() -> BreakerConfig:
    return BreakerConfig(failure_threshold=3, recovery_successes=4,
                         probe_successes=2, base_backoff=4, max_backoff=64)


def run_drill(config: DrillConfig | None = None,
              registry: MetricsRegistry | None = None) -> DrillReport:
    """Run one seeded closed-loop drill end to end.

    Deterministic: the report (and, when ``config.events_path`` is set,
    the JSONL event log, written with a tick-based clock) is a pure
    function of ``config``.
    """
    config = config or DrillConfig()
    injector = FaultInjector(seed=config.seed, corrupt_prob=0.0,
                             raise_prob=0.0)
    fleet = _make_fleet(config)
    service_ids = sorted(fleet)

    # Seeded scenario assignment mirrors plan_worker_faults: one draw per
    # service in id order, then a second seeded pass for action faults on
    # the faulted subset only.
    rng = np.random.default_rng(2000 + config.seed)
    scenarios: Dict[str, str] = {}
    for service_id in service_ids:
        if rng.random() < config.fault_rate:
            scenarios[service_id] = SCENARIOS[
                int(rng.integers(len(SCENARIOS)))]
    action_plan = injector.plan_action_faults(
        sorted(scenarios), config.action_fault_rate,
        relapse_ticks=config.relapse_ticks)

    detector = ZScoreDetector().fit(
        service_ids, [fleet[sid][:config.history_len]
                      for sid in service_ids])
    faulty = FaultyDetector(detector, injector)
    runtime = ServingRuntime(faulty, window=config.window, q=1e-2,
                             breaker_config=_drill_breaker_config(),
                             registry=registry)
    controller = RemediationController(
        runtime, config=_drill_remediation_config(), registry=registry,
        action_faults=action_plan)
    for service_id in service_ids:
        history = fleet[service_id][:config.history_len]
        runtime.start_service(service_id, history)
        controller.watch(service_id, history=history)

    fault_end = config.fault_start + config.fault_duration
    relapse_until: Dict[str, int] = {}
    relapse_fired: set = set()

    # Tick-based event clock: byte-identical logs from equal configs.
    current_tick = [0]
    previous_log = None
    event_log = None
    if config.events_path is not None:
        event_log = EventLog(Path(config.events_path),
                             clock=lambda: float(current_tick[0]))
        previous_log = install_event_log(event_log)
    try:
        for step in range(config.ticks):
            current_tick[0] = step + 1
            in_fault_window = config.fault_start <= step < fault_end
            for service_id in service_ids:
                scenario = scenarios.get(service_id, "")
                if scenario == "model_outage":
                    _set_membership(faulty.fail_services, service_id,
                                    in_fault_window
                                    or step < relapse_until.get(service_id,
                                                                0))
                elif scenario == "model_nan":
                    _set_membership(faulty.nan_services, service_id,
                                    in_fault_window)
                    _set_membership(faulty.fail_services, service_id,
                                    step < relapse_until.get(service_id, 0))
                else:
                    _set_membership(faulty.fail_services, service_id,
                                    step < relapse_until.get(service_id, 0))
                observation = fleet[service_id][config.history_len + step]
                if scenario == "input_corruption" and in_fault_window:
                    observation = None      # dropped in transport
                controller.step(service_id, observation)
                _maybe_relapse(controller, action_plan, service_id, step,
                               config.relapse_ticks, relapse_until,
                               relapse_fired)
    finally:
        if event_log is not None:
            install_event_log(previous_log)
            event_log.close()

    return _summarise(config, controller, runtime, scenarios, action_plan)


def _set_membership(group: set, service_id: str, present: bool) -> None:
    if present:
        group.add(service_id)
    else:
        group.discard(service_id)


def _maybe_relapse(controller: RemediationController,
                   action_plan: Dict[str, ActionFault], service_id: str,
                   step: int, relapse_ticks: int,
                   relapse_until: Dict[str, int],
                   relapse_fired: set) -> None:
    """Arm a scripted relapse the first time an incident starts verifying."""
    fault = action_plan.get(service_id)
    if fault is None or fault.kind != "recovery_relapse":
        return
    if service_id in relapse_fired and not fault.repeat:
        return
    incident = controller.active_incident(service_id)
    if incident is not None and incident.state is IncidentState.VERIFYING:
        relapse_until[service_id] = step + 1 + fault.relapse_ticks
        relapse_fired.add(service_id)


def _summarise(config: DrillConfig, controller: RemediationController,
               runtime: ServingRuntime, scenarios: Dict[str, str],
               action_plan: Dict[str, ActionFault]) -> DrillReport:
    by_service: Dict[str, List] = {sid: [] for sid in runtime.services()}
    for incident in controller.incidents:
        by_service[incident.service_id].append(incident)
    rows: List[DrillRow] = []
    faulted = converged = escalated_services = 0
    for service_id in sorted(by_service):
        incidents = by_service[service_id]
        resolved = sum(1 for i in incidents
                       if i.state is IncidentState.RESOLVED)
        escalated = sum(1 for i in incidents
                        if i.state is IncidentState.ESCALATED)
        fault = action_plan.get(service_id)
        final_state = runtime.health(service_id).state
        row = DrillRow(
            service_id=service_id,
            scenario=scenarios.get(service_id, ""),
            action_fault=fault.kind if fault is not None else "",
            incidents=len(incidents),
            resolved=resolved,
            escalated=escalated,
            actions=[pair for i in incidents for pair in i.actions],
            final_state=final_state.value,
        )
        if row.scenario:
            faulted += 1
            row.converged = (final_state is HealthState.HEALTHY
                             and resolved >= 1 and escalated == 0
                             and not any(i.active for i in incidents))
            converged += row.converged
            escalated_services += bool(escalated)
        else:
            # Control service: convergence means the loop left it alone.
            row.converged = (final_state is HealthState.HEALTHY
                             and not incidents)
        rows.append(row)
    return DrillReport(
        seed=config.seed,
        rows=rows,
        faulted=faulted,
        converged=converged,
        escalated=escalated_services,
        policy=controller.policy.stats(),
        controller=controller.report(),
    )
