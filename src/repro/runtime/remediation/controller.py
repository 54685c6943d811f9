"""The closed loop: detect → diagnose → act → verify.

:class:`RemediationController` subscribes to a
:class:`~repro.runtime.serving.ServingRuntime`'s health transitions and
drives every sick service through a per-incident state machine::

    OPEN ──diagnose──▶ policy ──grant──▶ ACTING ──ok──▶ VERIFYING
      ▲                  │ defer            │ fail/timeout   │ held HEALTHY,
      │                  ▼                  ▼                │ bounded drift
      │               WAITING          rollback,             ▼
      └──────────────(retry)◀──────── rung += 1          RESOLVED
                                          │
                          terminal rung ──▶ ESCALATED (quarantine + page)

Verification is the stage that makes the loop *closed*: an action only
counts as a remediation once the service has held ``HEALTHY`` for
``verify_dwell`` consecutive ticks with its model-path scores staying
within ``drift_factor`` of the pre-incident baseline.  Anything less
rolls the action back and climbs the escalation ladder; the final rung is
always a quarantine-and-page hand-off to a human, so the loop can never
flap a broken remedy forever.

Everything is tick-based and seeded-deterministic, every stage emits
``repro.obs`` events and metrics, and the whole loop is driven by the
same per-point ``step`` call the serving loop already makes — no threads,
no timers, nothing to wedge.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.streaming import StreamUpdate
from repro.obs.events import emit
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.tracing import span
from repro.runtime.faults import ActionFault
from repro.runtime.health import HealthState
from repro.runtime.remediation.actions import (
    Action,
    ActionContext,
    ActionOutcome,
    ActionRunner,
    create_action,
)
from repro.runtime.remediation.diagnosis import (
    Diagnosis,
    DiagnosisConfig,
    EvidenceWindow,
    diagnose,
)
from repro.runtime.remediation.policy import (
    TERMINAL_ACTION,
    PolicyConfig,
    PolicyEngine,
)
from repro.runtime.serving import ServingRuntime

__all__ = ["IncidentState", "Incident", "RemediationConfig",
           "RemediationController"]


class IncidentState(enum.Enum):
    OPEN = "open"            # diagnosed (or about to be); wants an action
    WAITING = "waiting"      # policy deferred (cooldown / blast radius)
    ACTING = "acting"        # an action is in flight
    VERIFYING = "verifying"  # action done; recovery dwell in progress
    RESOLVED = "resolved"    # verified recovery — the loop converged
    ESCALATED = "escalated"  # terminal rung ran; a human owns it now


_ACTIVE_STATES = (IncidentState.OPEN, IncidentState.WAITING,
                  IncidentState.ACTING, IncidentState.VERIFYING)


@dataclass
class Incident:
    """One service's journey through the loop."""

    incident_id: str
    service_id: str
    opened_tick: int
    trigger: str
    state: IncidentState = IncidentState.OPEN
    diagnosis: Optional[Diagnosis] = None
    rung: int = 0
    actions: List[Tuple[str, str]] = dataclass_field(default_factory=list)
    current_action: Optional[Action] = None
    current_ctx: Optional[ActionContext] = None
    verify_started: Optional[int] = None
    healthy_dwell: int = 0
    dwell_scores: List[float] = dataclass_field(default_factory=list)
    baseline_score: Optional[float] = None
    closed_tick: Optional[int] = None
    last_denial: str = ""

    @property
    def active(self) -> bool:
        return self.state in _ACTIVE_STATES


@dataclass(frozen=True)
class RemediationConfig:
    """Loop policy: diagnosis thresholds, guardrails, verification bar.

    ``verify_patience`` bounds how long a completed action may take to
    bring the service back to ``HEALTHY`` (re-probing alone needs
    ``probe_successes + recovery_successes`` ticks); ``verify_dwell`` is
    the consecutive-HEALTHY requirement after that; ``drift_factor``
    bounds the dwell-window mean model score relative to the pre-incident
    baseline.  ``degraded_patience`` opens an incident for a service that
    sits in ``DEGRADED`` without ever tripping the breaker.
    """

    diagnosis: DiagnosisConfig = dataclass_field(
        default_factory=DiagnosisConfig)
    policy: PolicyConfig = dataclass_field(default_factory=PolicyConfig)
    verify_patience: int = 48
    verify_dwell: int = 12
    drift_factor: float = 3.0
    history_rows: int = 160
    degraded_patience: int = 32

    def __post_init__(self):
        if self.verify_patience < 1 or self.verify_dwell < 1:
            raise ValueError("verify_patience/verify_dwell must be >= 1")
        if self.drift_factor <= 0:
            raise ValueError("drift_factor must be positive")
        if self.history_rows < 2:
            raise ValueError("history_rows must be >= 2")
        if self.degraded_patience < 1:
            raise ValueError("degraded_patience must be >= 1")


class RemediationController:
    """Drives the detect → diagnose → act → verify loop for a fleet.

    Wrap the serving loop's per-point call::

        controller = RemediationController(runtime)
        for row in live_feed:
            outcome = controller.step("svc-1", row)   # never raises

    ``retrain`` is the pluggable hot-swap backend
    (``retrain(service_id, history)``); the default re-characterizes the
    service in place via :meth:`ServingRuntime.reprepare_service`.
    ``action_faults`` (chaos drills only) maps service ids to
    :class:`~repro.runtime.faults.ActionFault` schedules.
    """

    def __init__(self, runtime: ServingRuntime,
                 config: RemediationConfig | None = None,
                 registry: MetricsRegistry | None = None,
                 retrain: Optional[Callable] = None,
                 action_faults: Optional[Dict[str, ActionFault]] = None):
        self.runtime = runtime
        self.config = config or RemediationConfig()
        self.registry = registry if registry is not None else get_registry()
        self.retrain = retrain
        self.policy = PolicyEngine(self.config.policy)
        self.runner = ActionRunner(fault_plan=action_faults)
        self._evidence: Dict[str, EvidenceWindow] = {}
        self._history: Dict[str, deque] = {}
        self._active: Dict[str, Incident] = {}
        self._parked: set = set()     # escalated services a human owns
        self.incidents: List[Incident] = []
        runtime.subscribe(self._on_transition)

    # ------------------------------------------------------------------
    # Serving-loop entry points
    # ------------------------------------------------------------------
    def watch(self, service_id: str,
              history: Optional[np.ndarray] = None) -> None:
        """Start tracking a service; optionally seed its clean history.

        Called implicitly by :meth:`step`; call it explicitly with the
        calibration history so recalibration remedies have real data
        before ``history_rows`` clean ticks have streamed.
        """
        if service_id not in self._evidence:
            self._evidence[service_id] = EvidenceWindow(
                self.config.diagnosis.window)
            self._history[service_id] = deque(
                maxlen=self.config.history_rows)
        if history is not None:
            rows = np.atleast_2d(np.asarray(history, dtype=float))
            for row in rows[-self.config.history_rows:]:
                if np.isfinite(row).all():
                    self._history[service_id].append(row.copy())

    def step(self, service_id: str,
             observation: Optional[np.ndarray]) -> StreamUpdate:
        """One closed-loop tick: serve the point, then run the control arm."""
        self.watch(service_id)
        outcome = self.runtime.update(service_id, observation)
        with span("remediation.control"):
            self._observe(service_id, observation, outcome)
            self._control(service_id, outcome)
        return outcome

    # ------------------------------------------------------------------
    # Evidence accumulation
    # ------------------------------------------------------------------
    def _observe(self, service_id: str, observation, outcome) -> None:
        self._evidence[service_id].record(outcome)
        if observation is None or outcome.sanitized:
            return
        row = np.asarray(observation, dtype=float).reshape(-1)
        if np.isfinite(row).all():
            self._history[service_id].append(row)

    def _history_array(self, service_id: str) -> Optional[np.ndarray]:
        rows = self._history.get(service_id)
        if not rows or len(rows) < 2:
            return None
        return np.stack(tuple(rows))

    # ------------------------------------------------------------------
    # Incident lifecycle
    # ------------------------------------------------------------------
    def _on_transition(self, service_id: str, tick: int,
                       from_state: HealthState,
                       to_state: HealthState) -> None:
        if to_state is not HealthState.QUARANTINED:
            return
        if service_id in self._parked or service_id in self._active:
            return
        self.watch(service_id)
        self._open_incident(service_id, tick, trigger="breaker_trip")

    def _open_incident(self, service_id: str, tick: int,
                       trigger: str) -> Incident:
        incident = Incident(
            incident_id=f"{service_id}#{len(self.incidents)}",
            service_id=service_id,
            opened_tick=tick,
            trigger=trigger,
        )
        self._active[service_id] = incident
        self.incidents.append(incident)
        emit("incident_open", incident=incident.incident_id,
             service=service_id, tick=tick, trigger=trigger)
        self.registry.counter("remediation.incidents",
                              trigger=trigger).inc()
        return incident

    def _control(self, service_id: str, outcome: StreamUpdate) -> None:
        health = self.runtime.health(service_id)
        tick = health.tick_count
        incident = self._active.get(service_id)
        if incident is None:
            if (service_id not in self._parked
                    and health.state is HealthState.DEGRADED
                    and health.ticks_in_state
                    >= self.config.degraded_patience):
                incident = self._open_incident(service_id, tick,
                                               trigger="degraded_persist")
            else:
                return
        if incident.state in (IncidentState.OPEN, IncidentState.WAITING):
            self._try_act(incident, tick)
        elif incident.state is IncidentState.ACTING:
            result = self.runner.step(service_id, tick)
            if result is not None and result is not ActionOutcome.PENDING:
                self._complete_action(incident, result, tick)
        elif incident.state is IncidentState.VERIFYING:
            self._verify_tick(incident, outcome, tick)

    # ------------------------------------------------------------------
    # Diagnose + act
    # ------------------------------------------------------------------
    def _diagnose(self, incident: Incident, tick: int) -> Diagnosis:
        service_id = incident.service_id
        window = self.runtime.current_window(service_id)
        fallback = self.runtime.fallback(service_id)
        if window is not None:
            drift = fallback.feature_drift(window)
        else:
            drift = np.zeros(0)
        diagnosis = diagnose(self._evidence[service_id], drift,
                             fallback.threshold,
                             self.config.diagnosis)
        incident.diagnosis = diagnosis
        emit("diagnosis", incident=incident.incident_id, service=service_id,
             tick=tick, **diagnosis.to_payload())
        self.registry.counter(
            "remediation.diagnoses",
            alert_class=diagnosis.alert_class.value).inc()
        return diagnosis

    def _try_act(self, incident: Incident, tick: int) -> None:
        service_id = incident.service_id
        diagnosis = incident.diagnosis or self._diagnose(incident, tick)
        health = self.runtime.health(service_id)
        decision = self.policy.decide(
            service_id, tick, diagnosis.alert_class, incident.rung,
            health.transitions_in_window(self.config.policy.flap_window))
        ladder = self.config.policy.ladder(diagnosis.alert_class)
        if decision.escalate:
            incident.rung = len(ladder) - 1
        if not decision.allowed:
            if decision.reason != incident.last_denial:
                incident.last_denial = decision.reason
                emit("policy_decision", incident=incident.incident_id,
                     service=service_id, tick=tick, **decision.to_payload())
            incident.state = IncidentState.WAITING
            return
        incident.last_denial = ""
        emit("policy_decision", incident=incident.incident_id,
             service=service_id, tick=tick, **decision.to_payload())
        action = create_action(decision.action)
        ctx = ActionContext(
            runtime=self.runtime, service_id=service_id, tick=tick,
            history=self._history_array(service_id), retrain=self.retrain)
        incident.current_action = action
        incident.current_ctx = ctx
        incident.state = IncidentState.ACTING
        self.policy.acquire(service_id, tick)
        self.registry.gauge("remediation.in_flight").set(
            self.policy.in_flight)
        emit("action_start", incident=incident.incident_id,
             service=service_id, action=action.name, rung=incident.rung,
             tick=tick, timeout_ticks=action.timeout_ticks)
        outcome, _running = self.runner.launch(action, ctx)
        if outcome is not ActionOutcome.PENDING:
            self._complete_action(incident, outcome, tick)

    def _complete_action(self, incident: Incident,
                         outcome: ActionOutcome, tick: int) -> None:
        service_id = incident.service_id
        action = incident.current_action
        self.policy.release(service_id)
        self.registry.gauge("remediation.in_flight").set(
            self.policy.in_flight)
        incident.actions.append((action.name, outcome.value))
        emit("action_end", incident=incident.incident_id,
             service=service_id, action=action.name, rung=incident.rung,
             outcome=outcome.value, tick=tick)
        self.registry.counter("remediation.actions", action=action.name,
                              outcome=outcome.value).inc()
        if outcome is ActionOutcome.OK:
            if getattr(action, "terminal", False):
                self._close(incident, IncidentState.ESCALATED, tick)
                return
            incident.state = IncidentState.VERIFYING
            incident.verify_started = tick
            incident.healthy_dwell = 0
            incident.dwell_scores = []
            incident.baseline_score = (
                self._evidence[service_id].score_baseline())
            return
        self._rollback(incident, tick,
                       reason=f"action outcome {outcome.value}")

    def _rollback(self, incident: Incident, tick: int, reason: str) -> None:
        service_id = incident.service_id
        action, ctx = incident.current_action, incident.current_ctx
        if action is not None and ctx is not None:
            try:
                action.rollback(ctx)
            except Exception:   # rollback is best-effort by contract
                pass
            emit("action_rollback", incident=incident.incident_id,
                 service=service_id, action=action.name, tick=tick,
                 reason=reason)
            self.registry.counter("remediation.rollbacks",
                                  action=action.name).inc()
        incident.current_action = None
        incident.current_ctx = None
        ladder_length = len(self.config.policy.ladder(
            incident.diagnosis.alert_class if incident.diagnosis
            else None))
        # Climb one rung, but never past the terminal one: a failed
        # terminal action is retried, not silently dropped.
        incident.rung = min(incident.rung + 1, ladder_length - 1)
        incident.state = IncidentState.OPEN

    # ------------------------------------------------------------------
    # Verify
    # ------------------------------------------------------------------
    def _verify_tick(self, incident: Incident, outcome: StreamUpdate,
                     tick: int) -> None:
        service_id = incident.service_id
        health = self.runtime.health(service_id)
        # A *new* trip after the action completed is a hard verification
        # failure; merely still being quarantined is not — a reset probe
        # legitimately needs a few ticks to close the breaker.
        if (health.state is HealthState.QUARANTINED
                and health.last_transition_tick > incident.verify_started):
            self._verification_failed(incident, tick,
                                      "service re-quarantined during dwell")
            return
        if (outcome.ready and not outcome.used_fallback
                and np.isfinite(outcome.score)):
            incident.dwell_scores.append(float(outcome.score))
        if health.state is HealthState.HEALTHY:
            incident.healthy_dwell += 1
        else:
            incident.healthy_dwell = 0
        if incident.healthy_dwell >= self.config.verify_dwell:
            drift_ok, dwell_mean = self._drift_bounded(incident)
            if drift_ok:
                emit("remediation_verified", incident=incident.incident_id,
                     service=service_id, tick=tick,
                     dwell=incident.healthy_dwell,
                     dwell_mean_score=dwell_mean,
                     baseline_score=incident.baseline_score)
                self.registry.counter("remediation.verified").inc()
                self._close(incident, IncidentState.RESOLVED, tick)
            else:
                self._verification_failed(
                    incident, tick,
                    f"score drift unbounded (dwell mean {dwell_mean:.4g} "
                    f"vs baseline {incident.baseline_score:.4g})")
            return
        if tick - incident.verify_started >= self.config.verify_patience:
            self._verification_failed(
                incident, tick,
                f"did not hold HEALTHY within {self.config.verify_patience} "
                "ticks")

    def _drift_bounded(self, incident: Incident
                       ) -> Tuple[bool, Optional[float]]:
        window = incident.dwell_scores[-self.config.verify_dwell:]
        if not window:
            return True, None
        dwell_mean = float(np.mean(window))
        baseline = incident.baseline_score
        if baseline is None or baseline <= 0:
            return True, dwell_mean
        return dwell_mean <= self.config.drift_factor * baseline, dwell_mean

    def _verification_failed(self, incident: Incident, tick: int,
                             reason: str) -> None:
        emit("verification_failed", incident=incident.incident_id,
             service=incident.service_id, tick=tick, reason=reason)
        self.registry.counter("remediation.verification_failures").inc()
        self._rollback(incident, tick, reason=reason)

    def _close(self, incident: Incident, state: IncidentState,
               tick: int) -> None:
        incident.state = state
        incident.closed_tick = tick
        incident.current_action = None
        incident.current_ctx = None
        self._active.pop(incident.service_id, None)
        if state is IncidentState.ESCALATED:
            self._parked.add(incident.service_id)
            emit("incident_escalated", incident=incident.incident_id,
                 service=incident.service_id, tick=tick,
                 actions=[name for name, _ in incident.actions])
            self.registry.counter("remediation.escalated").inc()
        else:
            emit("incident_resolved", incident=incident.incident_id,
                 service=incident.service_id, tick=tick,
                 opened_tick=incident.opened_tick,
                 actions=[name for name, _ in incident.actions])
            self.registry.histogram("remediation.resolution_ticks").observe(
                float(tick - incident.opened_tick))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def acknowledge(self, service_id: str) -> None:
        """A human has handled a paged service; re-arm the loop for it."""
        self._parked.discard(service_id)

    def active_incident(self, service_id: str) -> Optional[Incident]:
        return self._active.get(service_id)

    def report(self) -> dict:
        """Deterministic loop summary (guardrails, incidents, outcomes)."""
        by_state: Dict[str, int] = {}
        for incident in self.incidents:
            key = incident.state.value
            by_state[key] = by_state.get(key, 0) + 1
        return {
            "incidents": len(self.incidents),
            "by_state": dict(sorted(by_state.items())),
            "policy": self.policy.stats(),
            "actions_launched": self.runner.launched,
            "actions_timed_out": self.runner.timed_out,
            "parked_services": sorted(self._parked),
        }
